//! `deptree gateway`: a supervising front for a fleet of `deptree serve`
//! workers — whole-dataset placement, health-probed respawn, and
//! byte-identical proxying with failover (DESIGN.md §12).
//!
//! The gateway is one process that:
//!
//! - **spawns and supervises** N worker processes on ephemeral ports:
//!   one pure state machine (`fleet`) decides, and a thin shell
//!   (`supervisor`) spawns, signals, reaps and probes. Crash →
//!   exponential-backoff respawn, crash loop → quarantine, wedged worker
//!   → `/readyz` probes declare it dead;
//! - **places datasets** (`placement`): every dataset lives whole on a
//!   digest-stable home worker, plus `--replicas` successors and any
//!   bare worker topped up as a spare;
//! - **routes requests**: a task — or a batch whose items all name one
//!   dataset — is proxied to the dataset's home worker and the reply
//!   forwarded byte-for-byte; a refusal or a transport error fails over
//!   to the next holder. The gateway's answer is the worker's, which is
//!   the CLI's;
//! - **restarts rolling**: `POST /admin/reload` (or SIGHUP) drains the
//!   workers that are up one at a time, each only while every other
//!   worker that is not quarantined is up, and moves on once the respawn
//!   probes green, so failover covers the drained slot;
//! - **front-ends with the same hardened listener** as `deptree serve`
//!   ([`crate::listener`]): admission control, slow-loris bounds, panic
//!   barrier, and the two-phase drain all apply unchanged.
//!
//! Lifecycle on SIGTERM: stop accepting, drain in-flight proxies,
//! SIGTERM every worker not already draining, reap each under one shared
//! grace (SIGKILL past it), exit 0 — see [`GatewayHandle::drain_and_join`].

mod fleet;
mod placement;
mod supervisor;

pub use placement::DatasetSpec;

use crate::client::{self, ClientConfig};
use crate::drain::DrainState;
use crate::json::Json;
use crate::listener::{spawn_service, ListenOpts, ServerHandle, Service, ServiceReply};
use crate::protocol::{error_body, ErrorCode, Request};
use crate::router::{self, AppState};
use crate::telemetry;
use deptree_core::DeptreeError;
use fleet::Policy;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use supervisor::{log, Supervisor, SupervisorConfig};

/// Uptime below this counts as a fast crash (quarantine fuel).
const FAST_CRASH: Duration = Duration::from_secs(1);
/// Consecutive failed `/readyz` probes before a worker is declared dead.
const PROBE_FAILURES: u32 = 3;
/// How long a starting worker may take to announce its address.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything `spawn_gateway` needs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The worker binary; normally the running `deptree` binary itself.
    pub worker_bin: PathBuf,
    /// How many workers to supervise.
    pub workers: usize,
    /// Extra copies of each dataset on successor workers, for proxy
    /// failover.
    pub replicas: usize,
    /// Datasets to place, from `--data`.
    pub datasets: Vec<DatasetSpec>,
    /// Workers parse CSVs leniently (drop bad rows with a warning).
    pub lossy: bool,
    /// Engine threads per worker.
    pub worker_threads: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard cap on any requested deadline.
    pub max_deadline: Duration,
    /// Base respawn delay after a worker crash.
    pub respawn_base: Duration,
    /// Cap on the exponential respawn delay.
    pub respawn_max: Duration,
    /// Consecutive fast crashes before a worker is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined worker sits out before probation.
    pub quarantine_cooldown: Duration,
    /// How often each Up worker's `/readyz` is probed.
    pub probe_interval: Duration,
    /// SIGTERM→SIGKILL grace per worker at shutdown and rolling drain.
    pub child_grace: Duration,
    /// Front-end transport knobs (bind address, admission, timeouts).
    pub listen: ListenOpts,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            worker_bin: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("deptree")),
            workers: 4,
            replicas: 0,
            datasets: Vec::new(),
            lossy: false,
            worker_threads: 1,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            respawn_base: Duration::from_millis(500),
            respawn_max: Duration::from_secs(15),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(30),
            probe_interval: Duration::from_millis(500),
            child_grace: Duration::from_secs(5),
            listen: ListenOpts::default(),
        }
    }
}

/// The gateway's [`Service`]: routing on top of the shared listener.
struct GatewayState {
    supervisor: Arc<Supervisor>,
    /// A router holding no datasets: answers method mismatches and
    /// unknown routes with exactly a worker's bytes.
    local: AppState,
    /// Dataset → holders (home first, then replicas and spares).
    homes: BTreeMap<String, Vec<usize>>,
    drain: Arc<DrainState>,
    default_deadline: Duration,
    max_deadline: Duration,
    /// Idle keep-alive connections to workers, shared across the proxy,
    /// catalogue and metrics paths. A worker restart leaves
    /// stale sockets behind; the pooled client falls back to a fresh
    /// dial, so staleness costs one round trip, never a failed request.
    pool: client::ConnPool,
}

impl Service for GatewayState {
    fn respond(&self, req: &Request) -> ServiceReply {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => ServiceReply::Text(200, self.aggregated_metrics()),
            ("GET", "/healthz") => ServiceReply::Json(200, self.healthz()),
            ("GET", "/readyz") => {
                let (status, body) = self.readyz();
                ServiceReply::Json(status, body)
            }
            ("GET", "/v1/datasets") => ServiceReply::Json(200, self.catalogue()),
            (
                "POST",
                "/v1/discover" | "/v1/validate" | "/v1/detect" | "/v1/repair" | "/v1/dedup"
                | "/v1/batch",
            ) => self.task(req),
            ("POST", "/admin/reload") => self.reload(),
            (_, "/admin/reload") => {
                reply_err(ErrorCode::MethodNotAllowed, "use POST /admin/reload")
            }
            // Placement is fixed by the gateway's flags: a load through
            // the front would reach one worker and none of the holders.
            (_, "/admin/datasets") => reply_err(
                ErrorCode::Unsupported,
                "dataset admin is per worker; place datasets via gateway flags",
            ),
            // Everything else (method mismatches, unknown routes) gets the
            // router's own answers, byte-identical to a single worker's.
            _ => {
                let (status, body) = router::handle(&self.local, req);
                ServiceReply::Json(status, body)
            }
        }
    }

    fn drain_handle(&self) -> &Arc<DrainState> {
        &self.drain
    }
}

impl GatewayState {
    fn healthz(&self) -> Json {
        Json::obj()
            .set("status", "ok")
            .set("draining", self.drain.is_draining())
            .set("inflight", self.drain.inflight() as u64)
            .set("workers", self.supervisor.status_json())
            .set("quarantined", self.supervisor.quarantined_count() as u64)
            .set("reloading", self.supervisor.reloading())
    }

    fn readyz(&self) -> (u16, Json) {
        if self.drain.is_draining() {
            return (
                503,
                Json::obj().set("ready", false).set(
                    "error",
                    Json::obj()
                        .set("code", ErrorCode::Draining.wire())
                        .set("message", "server is draining; retry elsewhere"),
                ),
            );
        }
        let up = self.supervisor.live().len();
        if up == 0 {
            return (
                503,
                Json::obj().set("ready", false).set(
                    "error",
                    Json::obj()
                        .set("code", ErrorCode::Overloaded.wire())
                        .set("message", "no live workers"),
                ),
            );
        }
        (
            200,
            Json::obj().set("ready", true).set("workers_up", up as u64),
        )
    }

    /// Union catalogue: each dataset as its first reachable holder's own
    /// catalogue lists it. Unreachable datasets are omitted; they
    /// reappear when a holder comes back.
    fn catalogue(&self) -> Json {
        let mut entries: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut fetched: BTreeMap<usize, Option<Json>> = BTreeMap::new();
        for (name, holders) in &self.homes {
            for &w in holders {
                let Some(addr) = self.supervisor.worker_addr(w) else {
                    continue;
                };
                let body = fetched.entry(w).or_insert_with(|| {
                    client::query_pooled(
                        &self.pool,
                        &self.worker_client(&addr, 0, Duration::from_secs(5)),
                        "GET",
                        "/v1/datasets",
                        None,
                    )
                    .ok()
                    .map(|r| r.body)
                });
                let Some(body) = body else { continue };
                let found = body
                    .get("datasets")
                    .and_then(Json::as_arr)
                    .and_then(|list| {
                        list.iter()
                            .find(|d| d.str_field("name") == Some(name.as_str()))
                            .map(|d| {
                                (
                                    d.u64_field("rows").unwrap_or(0),
                                    d.u64_field("columns").unwrap_or(0),
                                )
                            })
                    });
                if let Some(dims) = found {
                    entries.insert(name.clone(), dims);
                    break;
                }
            }
        }
        let list: Vec<Json> = entries
            .iter()
            .map(|(name, (rows, columns))| {
                Json::obj()
                    .set("name", name.as_str())
                    .set("rows", *rows)
                    .set("columns", *columns)
            })
            .collect();
        Json::obj().set("datasets", list)
    }

    /// Gateway registry first, then every live worker's exposition with
    /// a `worker="N"` label injected so same-named series stay apart.
    fn aggregated_metrics(&self) -> String {
        let mut out = telemetry::render();
        for (w, addr) in self.supervisor.live() {
            let cfg = self.worker_client(&addr, 0, Duration::from_secs(5));
            if let Ok((200, text)) = client::fetch_text_pooled(&self.pool, &cfg, "/metrics") {
                out.push_str(&telemetry::relabel_worker(&text, w));
            }
        }
        out
    }

    /// Start a rolling restart and return at once — progress is
    /// observable in `/healthz` (`reloading`) and the per-worker restart
    /// counters.
    fn reload(&self) -> ServiceReply {
        let _inflight = self.drain.track();
        if self.drain.is_draining() {
            return reply_err(ErrorCode::Draining, "server is draining");
        }
        if !self.supervisor.request_reload() {
            return reply_err(
                ErrorCode::Overloaded,
                "a rolling restart is already in progress",
            );
        }
        log("rolling restart requested via POST /admin/reload");
        ServiceReply::Json(
            200,
            Json::obj()
                .set("reload", "started")
                .set("workers", self.supervisor.slot_count() as u64),
        )
    }

    /// Route a task — or a batch whose items all name one dataset — to
    /// the dataset's holders.
    fn task(&self, req: &Request) -> ServiceReply {
        // Track before the drain check, like the router: the drain
        // coordinator must never miss a proxy that raced past the flag.
        let _inflight = self.drain.track();
        if self.drain.is_draining() {
            return reply_err(ErrorCode::Draining, "server is draining");
        }
        let body = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_owned())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(msg) => return reply_err(ErrorCode::Parse, &msg),
        };
        let name = if req.path == "/v1/batch" {
            match batch_dataset(&body) {
                Some(name) => name,
                None => {
                    return reply_err(
                        ErrorCode::Unsupported,
                        "a batch through the gateway must name one dataset in every item",
                    )
                }
            }
        } else {
            match body.str_field("dataset") {
                Some(name) => name,
                None => return reply_err(ErrorCode::BadRequest, "missing `dataset` field"),
            }
        };
        match self.homes.get(name) {
            Some(holders) => self.proxy(req, name, holders),
            None => reply_err(ErrorCode::NotFound, &format!("unknown dataset `{name}`")),
        }
    }

    /// Proxy a request to the dataset's home worker, failing over to the
    /// other holders in order. The worker's response body is forwarded
    /// byte-for-byte. A holder that answers but only to refuse (429
    /// overloaded / 503 draining — e.g. mid rolling restart with its
    /// retry budget spent) is treated as a failover signal too; its
    /// refusal is forwarded only when every holder refused.
    fn proxy(&self, req: &Request, name: &str, holders: &[usize]) -> ServiceReply {
        let deadline = self.deadline_of(req);
        let mut last_err: Option<client::ClientError> = None;
        let mut last_refusal: Option<client::RawResponse> = None;
        for &w in holders {
            let Some(addr) = self.supervisor.worker_addr(w) else {
                continue;
            };
            let cfg = self.worker_client(&addr, 1, deadline);
            match client::forward_pooled(&self.pool, &cfg, &req.method, &req.path, Some(&req.body))
            {
                Ok(raw) if matches!(raw.status, 429 | 503) => {
                    log(&format!(
                        "proxy of `{name}` to worker {w} refused ({}): failing over",
                        raw.status
                    ));
                    last_refusal = Some(raw);
                }
                Ok(raw) => {
                    telemetry::gateway_metrics().proxied.inc();
                    return ServiceReply::Bytes(raw.status, raw.body);
                }
                Err(e) => {
                    log(&format!(
                        "proxy of `{name}` to worker {w} failed ({}): failing over",
                        e.code.wire()
                    ));
                    last_err = Some(e);
                }
            }
        }
        if let Some(raw) = last_refusal {
            telemetry::gateway_metrics().proxied.inc();
            return ServiceReply::Bytes(raw.status, raw.body);
        }
        match last_err {
            Some(e) => reply_err(
                e.code,
                &format!("every holder of `{name}` failed; last: {}", e.message),
            ),
            None => reply_err(
                ErrorCode::Overloaded,
                &format!("no live worker holds `{name}` (respawning); retry"),
            ),
        }
    }

    /// The deadline a proxied request is working under, for sizing the
    /// gateway→worker I/O timeouts around it.
    fn deadline_of(&self, req: &Request) -> Duration {
        std::str::from_utf8(&req.body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|b| b.u64_field("timeout_ms"))
            .map_or(self.default_deadline, |ms| {
                Duration::from_millis(ms).min(self.max_deadline)
            })
    }

    /// Client config for one gateway→worker call: generous I/O timeouts
    /// beyond the task deadline (the worker enforces the real budget),
    /// retries only for the transient codes the client already knows.
    fn worker_client(&self, addr: &str, retries: u32, deadline: Duration) -> ClientConfig {
        ClientConfig {
            addr: addr.to_owned(),
            retries,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
            io_timeout: deadline + Duration::from_secs(10),
            frame_timeout: deadline + Duration::from_secs(15),
            seed: placement::fnv1a64(addr),
            max_response_bytes: 64 << 20,
        }
    }
}

/// The one dataset every item of a batch names, if there is one. A
/// batch spanning datasets would need a fan-out across holders, which
/// the gateway does not do.
fn batch_dataset(body: &Json) -> Option<&str> {
    let items = body.get("requests")?.as_arr()?;
    let name = items.first()?.str_field("dataset")?;
    items
        .iter()
        .all(|item| item.str_field("dataset") == Some(name))
        .then_some(name)
}

fn reply_err(code: ErrorCode, message: &str) -> ServiceReply {
    ServiceReply::Json(code.http_status(), error_body(code, message))
}

/// A running gateway: front-end server plus the supervised fleet.
pub struct GatewayHandle {
    server: ServerHandle,
    supervisor: Arc<Supervisor>,
    state: Arc<GatewayState>,
}

impl GatewayHandle {
    /// The gateway's bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The lifecycle state, for wiring signal handlers.
    pub fn drain_state(&self) -> &Arc<DrainState> {
        self.server.drain_state()
    }

    /// Current worker pids, one entry per slot (`None` while down).
    pub fn worker_pids(&self) -> Vec<Option<u32>> {
        self.supervisor.pids()
    }

    /// Total worker respawns so far (initial spawns not counted).
    pub fn worker_restarts(&self) -> u64 {
        self.supervisor.restarts()
    }

    /// Respawns of one slot, for restarted-exactly-once assertions.
    pub fn worker_restarts_of(&self, id: usize) -> u64 {
        self.supervisor.restarts_of(id)
    }

    /// The slots holding `dataset`, home first, then replicas and
    /// spares: the order the proxy fails over in.
    pub fn holders(&self, dataset: &str) -> Option<&[usize]> {
        self.state.homes.get(dataset).map(Vec::as_slice)
    }

    /// Start a rolling restart (the SIGHUP path); `false` when one is
    /// already running.
    pub fn request_reload(&self) -> bool {
        self.supervisor.request_reload()
    }

    /// The orderly exit: stop accepting, drain in-flight proxies
    /// (cancelling stragglers past the grace), then SIGTERM every worker
    /// not already draining and reap it — SIGKILL past the child grace.
    /// No zombies survive this call.
    pub fn drain_and_join(self) {
        self.server.drain();
        self.server.join();
        self.supervisor.shutdown();
    }
}

/// Build the placement, boot the fleet, and bind the front end.
pub fn spawn_gateway(config: GatewayConfig) -> Result<GatewayHandle, DeptreeError> {
    let plan = placement::build_plan(&config.datasets, config.workers, config.replicas)?;
    for (name, holders) in &plan.homes {
        let holders: Vec<String> = holders.iter().map(usize::to_string).collect();
        log(&format!(
            "dataset `{name}` on worker(s) {} (home first)",
            holders.join(", ")
        ));
    }

    let worker_args: Vec<Vec<String>> = plan
        .worker_specs
        .iter()
        .map(|specs| {
            let mut args = vec![
                "serve".to_owned(),
                "--addr".to_owned(),
                "127.0.0.1:0".to_owned(),
                "--threads".to_owned(),
                config.worker_threads.max(1).to_string(),
                "--default-timeout-ms".to_owned(),
                config.default_deadline.as_millis().to_string(),
                "--max-timeout-ms".to_owned(),
                config.max_deadline.as_millis().to_string(),
            ];
            for spec in specs {
                args.push("--data".to_owned());
                args.push(spec.clone());
            }
            if config.lossy {
                args.push("--lossy".to_owned());
            }
            args
        })
        .collect();

    // Register every gateway series before the first scrape, so the CI
    // smoke sees them at zero.
    let _ = telemetry::gateway_metrics();
    for w in 0..config.workers.max(1) {
        let _ = telemetry::worker_up(w);
        let _ = telemetry::worker_restarts(w);
        for state in telemetry::SLOT_STATES {
            let _ = telemetry::slot_state(w, state);
        }
    }

    let supervisor = Supervisor::start(SupervisorConfig {
        worker_bin: config.worker_bin.clone(),
        worker_args,
        policy: Policy {
            respawn_base: config.respawn_base,
            respawn_max: config.respawn_max,
            fast_crash: FAST_CRASH,
            quarantine_after: config.quarantine_after.max(1),
            quarantine_cooldown: config.quarantine_cooldown,
            probe_interval: config.probe_interval,
            probe_failures: PROBE_FAILURES,
            spawn_timeout: SPAWN_TIMEOUT,
            child_grace: config.child_grace,
        },
    });

    let drain = DrainState::new();
    let local = AppState::new(
        BTreeMap::new(),
        Arc::clone(&drain),
        1,
        config.default_deadline,
        config.max_deadline,
        0,
    );
    let state = Arc::new(GatewayState {
        supervisor: Arc::clone(&supervisor),
        local,
        homes: plan.homes,
        drain,
        default_deadline: config.default_deadline,
        max_deadline: config.max_deadline,
        pool: client::ConnPool::new(),
    });

    match spawn_service(config.listen, Arc::clone(&state)) {
        Ok(server) => Ok(GatewayHandle {
            server,
            supervisor,
            state,
        }),
        Err(e) => {
            supervisor.shutdown();
            Err(e)
        }
    }
}
