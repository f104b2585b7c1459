//! Request routing: paths → tasks, budgets → `Exec`, errors → codes.
//!
//! The router is a pure function from a parsed [`Request`] and the shared
//! [`AppState`] to `(status, body)`. All state mutation is confined to
//! the in-flight counter (for drain) and the engine's own atomics, so the
//! router can be driven concurrently by every worker thread.
//!
//! Endpoints:
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET  | `/healthz`     | liveness (200 while the process serves) |
//! | GET  | `/readyz`      | readiness (503 once draining) |
//! | GET  | `/v1/datasets` | preloaded dataset catalogue |
//! | POST | `/v1/discover` | discovery profile (TANE/CORDS/OD/FASTDC) |
//! | POST | `/v1/validate` | does one rule hold (+ g3)? |
//! | POST | `/v1/detect`   | violation witnesses of one rule |
//! | POST | `/v1/repair`   | FD repair; returns repaired CSV |
//! | POST | `/v1/dedup`    | exact-key duplicate clustering |
//! | POST | `/v1/batch`    | N task requests under one shared budget |
//! | POST | `/admin/datasets` | register or replace a dataset from inline CSV |
//!
//! Task bodies share the envelope `{dataset, timeout_ms?, max_nodes?,
//! max_rows?}` plus per-task fields; task responses share `{task,
//! dataset, report, partial, exhausted?, stats}`. A request truncated by
//! its deadline or by drain cancellation still answers `200` with
//! `partial: true` — the sound-partial anytime contract carried over the
//! wire.
//!
//! Successful non-partial task replies are cached per dataset *version*
//! (a monotonic counter bumped on every `/admin` load), so a
//! repeat read replays the exact bytes of the original reply and any
//! mutation invalidates by construction — see [`crate::cache`].

use crate::cache::ResponseCache;
use crate::drain::DrainState;
use crate::json::Json;
use crate::protocol::{budget_wire, code_for, error_body, ErrorCode, Request};
use crate::tasks;
use deptree_core::engine::{Budget, Exec};
use deptree_core::DeptreeError;
use deptree_relation::{parse_csv, to_csv, Relation, ValueType};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Separator inside cache keys; cannot occur in a dataset name that came
/// from a header-derived CSV column or a JSON string without escaping,
/// and even a crafted name cannot collide because the version and path
/// segments are server-controlled.
const KEY_SEP: char = '\u{1}';

/// Task endpoints whose successful replies may be cached. Admin,
/// catalogue and batch traffic never is: admin mutates, the catalogue is
/// cheap, and a batch's reply depends on a shared budget's timing.
const CACHEABLE: [&str; 5] = [
    "/v1/discover",
    "/v1/validate",
    "/v1/detect",
    "/v1/repair",
    "/v1/dedup",
];

/// Most requests one `/v1/batch` frame may carry.
const MAX_BATCH_ITEMS: usize = 256;

/// Per-server state shared by all workers. Everything is immutable
/// except the dataset map, which `/admin/datasets` may extend or
/// replace entries of at runtime, and the drain/engine atomics.
pub struct AppState {
    /// Named datasets with their version: preloaded at boot, extended
    /// over `/admin`. `Arc` per relation so a task keeps its snapshot
    /// alive even if an admin replace races the request — reads never
    /// block on a parse. The version is globally monotonic (never
    /// reused, even when a name is replaced), so it is safe to key
    /// cached responses by.
    datasets: RwLock<BTreeMap<String, (u64, Arc<Relation>)>>,
    /// Source of dataset versions; see `datasets`.
    next_version: AtomicU64,
    /// Cached rendered replies, keyed by dataset version + request.
    cache: ResponseCache,
    /// Lifecycle flags; the router refuses task work while draining.
    pub drain: Arc<DrainState>,
    /// Worker threads each request's `Exec` may use.
    pub threads: usize,
    /// Deadline applied when the request names none.
    pub default_deadline: Duration,
    /// Hard cap on any requested deadline.
    pub max_deadline: Duration,
}

impl AppState {
    /// Wrap a boot-time dataset map into shared state.
    /// `response_cache_bytes` caps the response cache (0 disables it).
    pub fn new(
        datasets: BTreeMap<String, Relation>,
        drain: Arc<DrainState>,
        threads: usize,
        default_deadline: Duration,
        max_deadline: Duration,
        response_cache_bytes: usize,
    ) -> Self {
        let mut version = 0u64;
        AppState {
            datasets: RwLock::new(
                datasets
                    .into_iter()
                    .map(|(k, v)| {
                        version += 1;
                        (k, (version, Arc::new(v)))
                    })
                    .collect(),
            ),
            next_version: AtomicU64::new(version + 1),
            cache: ResponseCache::new(response_cache_bytes),
            drain,
            threads,
            default_deadline,
            max_deadline,
        }
    }

    /// Fetch one dataset's relation (a cheap `Arc` clone).
    pub fn dataset(&self, name: &str) -> Option<Arc<Relation>> {
        self.dataset_versioned(name).map(|(_, r)| r)
    }

    /// Fetch one dataset's `(version, relation)` pair.
    pub fn dataset_versioned(&self, name: &str) -> Option<(u64, Arc<Relation>)> {
        self.datasets
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Register (or replace) a dataset at runtime under a fresh version,
    /// invalidating any cached replies for the name. Returns `true` when
    /// a same-named dataset was replaced.
    pub fn insert_dataset(&self, name: String, relation: Relation) -> bool {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let prefix = format!("{name}{KEY_SEP}");
        let replaced = self
            .datasets
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name, (version, Arc::new(relation)))
            .is_some();
        self.cache.purge_prefix(&prefix);
        replaced
    }

    /// `(name, rows, columns)` for every registered dataset, in name
    /// order — the `/v1/datasets` catalogue.
    pub fn dataset_summaries(&self) -> Vec<(String, usize, usize)> {
        self.datasets
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, (_, r))| (name.clone(), r.n_rows(), r.n_attrs()))
            .collect()
    }

    /// The response-cache key for this request, or `None` when the
    /// request is not cacheable (wrong route, unparseable body, unknown
    /// dataset, cache disabled). The key embeds the dataset's current
    /// version and the *canonical* body rendering, so key-order or
    /// whitespace differences in client JSON still hit the same entry.
    pub fn cache_key(&self, req: &Request) -> Option<String> {
        if !self.cache.enabled() || req.method != "POST" {
            return None;
        }
        if !CACHEABLE.contains(&req.path.as_str()) {
            return None;
        }
        let body = std::str::from_utf8(&req.body).ok()?;
        let body = Json::parse(body).ok()?;
        let name = body.str_field("dataset")?;
        let (version, _) = self.dataset_versioned(name)?;
        Some(format!(
            "{name}{KEY_SEP}{version}{KEY_SEP}{}{KEY_SEP}{}",
            req.path,
            canonical_render(&body)
        ))
    }

    /// Replay a cached reply for `key`, if present.
    pub fn cache_lookup(&self, key: &str) -> Option<Vec<u8>> {
        self.cache.get(key)
    }

    /// Store a reply under `key` if it qualifies (200, `partial: false`)
    /// and return the exact bytes stored, so the caller serves those and
    /// a later hit is a byte-identical replay.
    pub fn cache_store(&self, key: String, status: u16, body: &Json) -> Option<Vec<u8>> {
        if status != 200 || body.bool_field("partial") != Some(false) {
            return None;
        }
        let rendered = body.render().into_bytes();
        self.cache.put(key, rendered.clone());
        Some(rendered)
    }

    /// Response-cache resident bytes (test and debugging hook).
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }
}

/// Dispatch one request. Infallible: every failure becomes a structured
/// error response.
pub fn handle(app: &AppState, req: &Request) -> (u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            Json::obj()
                .set("status", "ok")
                .set("draining", app.drain.is_draining())
                .set("inflight", app.drain.inflight() as u64),
        ),
        ("GET", "/readyz") => {
            if app.drain.is_draining() {
                (
                    503,
                    Json::obj()
                        .set("ready", false)
                        .set("error", draining_error()),
                )
            } else {
                (200, Json::obj().set("ready", true))
            }
        }
        ("GET", "/v1/datasets") => {
            let list: Vec<Json> = app
                .dataset_summaries()
                .into_iter()
                .map(|(name, rows, columns)| {
                    Json::obj()
                        .set("name", name.as_str())
                        .set("rows", rows)
                        .set("columns", columns)
                })
                .collect();
            (200, Json::obj().set("datasets", list))
        }
        ("POST", "/v1/discover" | "/v1/validate" | "/v1/detect" | "/v1/repair" | "/v1/dedup") => {
            task(app, req)
        }
        ("POST", "/v1/batch") => batch(app, req),
        ("POST", "/admin/datasets") => admin_load(app, req),
        (_, "/healthz" | "/readyz" | "/v1/datasets" | "/admin/datasets") => err(
            ErrorCode::MethodNotAllowed,
            &format!("{} not allowed here", req.method),
        ),
        (
            "GET" | "HEAD",
            "/v1/discover" | "/v1/validate" | "/v1/detect" | "/v1/repair" | "/v1/dedup"
            | "/v1/batch",
        ) => err(ErrorCode::MethodNotAllowed, "use POST with a JSON body"),
        _ => err(ErrorCode::NotFound, &format!("no route for {}", req.path)),
    }
}

/// Render `body` with object keys sorted recursively. The codec itself
/// preserves insertion order (responses must render deterministically in
/// the order they were built), so cache keys sort a copy: two requests
/// differing only in field order or whitespace share one entry.
fn canonical_render(body: &Json) -> String {
    fn sorted(v: &Json) -> Json {
        match v {
            Json::Obj(fields) => {
                let mut fields: Vec<(String, Json)> =
                    fields.iter().map(|(k, v)| (k.clone(), sorted(v))).collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(fields)
            }
            Json::Arr(items) => Json::Arr(items.iter().map(sorted).collect()),
            other => other.clone(),
        }
    }
    sorted(body).render()
}

fn err(code: ErrorCode, message: &str) -> (u16, Json) {
    (code.http_status(), error_body(code, message))
}

fn err_for(e: &DeptreeError) -> (u16, Json) {
    let code = code_for(e);
    (code.http_status(), error_body(code, &e.to_string()))
}

fn draining_error() -> Json {
    Json::obj()
        .set("code", ErrorCode::Draining.wire())
        .set("message", "server is draining; retry elsewhere")
}

/// Execute one task endpoint under admission + drain + budget rules.
fn task(app: &AppState, req: &Request) -> (u16, Json) {
    // Count the request as in flight *before* the drain check so the
    // drain coordinator can never miss work that raced past the flag.
    let _inflight = app.drain.track();
    if app.drain.is_draining() {
        return err(ErrorCode::Draining, "server is draining");
    }

    let body = match parse_body(req) {
        Ok(v) => v,
        Err(msg) => return err(ErrorCode::Parse, &msg),
    };
    let exec = match exec_for(app, &body) {
        Ok(exec) => exec,
        Err(msg) => return err(ErrorCode::InvalidConfig, &msg),
    };
    run_task(app, req.path.trim_start_matches("/v1/"), &body, &exec)
}

fn parse_body(req: &Request) -> Result<Json, String> {
    std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_owned())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
}

/// `POST /v1/batch` — execute up to [`MAX_BATCH_ITEMS`] task requests
/// from one frame under one shared budget: `{requests: [{task, dataset,
/// …}, …], timeout_ms?, max_nodes?, max_rows?}`. The envelope's budget
/// fields build a single `Exec` that every item draws from; per-item
/// budget fields are ignored. Items run in order; once the shared budget
/// is exhausted, remaining items answer `budget_exhausted` without
/// running and the envelope reports `partial: true`. Batch replies are
/// never cached — their contents depend on where the shared budget ran
/// out, which is timing, not data.
fn batch(app: &AppState, req: &Request) -> (u16, Json) {
    let _inflight = app.drain.track();
    if app.drain.is_draining() {
        return err(ErrorCode::Draining, "server is draining");
    }
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(msg) => return err(ErrorCode::Parse, &msg),
    };
    let Some(items) = body.get("requests").and_then(Json::as_arr) else {
        return err(
            ErrorCode::BadRequest,
            "missing `requests` field (want an array of task requests)",
        );
    };
    if items.len() > MAX_BATCH_ITEMS {
        return err(
            ErrorCode::TooLarge,
            &format!(
                "batch holds {} requests; the cap is {MAX_BATCH_ITEMS}",
                items.len()
            ),
        );
    }
    let exec = match exec_for(app, &body) {
        Ok(exec) => exec,
        Err(msg) => return err(ErrorCode::InvalidConfig, &msg),
    };
    let mut responses: Vec<Json> = Vec::with_capacity(items.len());
    let mut starved = 0usize;
    for item in items {
        if exec.interrupted() {
            // The shared budget ran dry: answer the remaining items
            // without running them, so the caller can tell "executed
            // and truncated" apart from "never started".
            starved += 1;
            responses.push(Json::obj().set("status", 503u64).set(
                "body",
                error_body(
                    ErrorCode::BudgetExhausted,
                    "shared batch budget exhausted before this request",
                ),
            ));
            continue;
        }
        let (status, reply) = match item.str_field("task") {
            Some(task_name) => run_task(app, task_name, item, &exec),
            None => err(ErrorCode::BadRequest, "missing `task` field"),
        };
        responses.push(
            Json::obj()
                .set("status", u64::from(status))
                .set("body", reply),
        );
    }
    (
        200,
        Json::obj()
            .set("partial", starved > 0)
            .set("executed", (responses.len() - starved) as u64)
            .set("responses", responses),
    )
}

/// Run one named task against `app` with an already-built execution
/// context. Shared by the single-request path (`task`, which builds a
/// per-request `Exec`) and `/v1/batch` (which shares one `Exec` across
/// every item).
fn run_task(app: &AppState, task_name: &str, body: &Json, exec: &Exec) -> (u16, Json) {
    let Some(name) = body.str_field("dataset") else {
        return err(ErrorCode::BadRequest, "missing `dataset` field");
    };
    let Some(relation) = app.dataset(name) else {
        return err(ErrorCode::NotFound, &format!("unknown dataset `{name}`"));
    };
    let relation = relation.as_ref();

    let rendered = match task_name {
        "discover" => {
            let opts = tasks::ProfileOpts {
                max_lhs: body.u64_field("max_lhs").unwrap_or(2) as usize,
                error: body.f64_field("error").unwrap_or(0.0),
            };
            Ok((tasks::profile(relation, &opts, exec), None))
        }
        "validate" => rule_of(body)
            .and_then(|rule| tasks::validate(relation, rule))
            .map(|r| (r, None)),
        "detect" => rule_of(body)
            .and_then(|rule| tasks::detect(relation, rule))
            .map(|r| (r, None)),
        "repair" => rule_of(body)
            .and_then(|rule| tasks::repair(relation, rule, exec))
            .map(|(r, repaired)| (r, Some(to_csv(&repaired)))),
        "dedup" => {
            let keys: Vec<String> = body
                .get("keys")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Json::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default();
            tasks::dedup(relation, &keys, exec).map(|r| (r, None))
        }
        _ => Err(DeptreeError::Unsupported(format!(
            "task `{task_name}` is not implemented"
        ))),
    };

    // Lazy columnar views (sorted-run indexes, packed numeric vectors)
    // materialize inside the task; re-read the footprint so the gauge
    // tracks resident bytes, not just the post-load dictionary size.
    crate::telemetry::dataset_bytes(name).set(relation.approx_bytes() as i64);

    match rendered {
        Err(e) => err_for(&e),
        Ok((report, csv)) => {
            let stats = exec.stats();
            let mut resp = Json::obj()
                .set("task", task_name)
                .set("dataset", name)
                .set("report", report.text)
                .set("partial", report.exhausted.is_some());
            if let Some(kind) = report.exhausted {
                resp = resp.set("exhausted", budget_wire(kind));
            }
            if let Some(csv) = csv {
                resp = resp.set("csv", csv);
            }
            if task_name == "discover" {
                // Full machine-readable FD list (the human `report`
                // truncates at 25).
                let fds: Vec<Json> = report.fds.iter().map(|s| Json::from(s.as_str())).collect();
                resp = resp.set("fds", fds);
            }
            resp = resp.set(
                "stats",
                Json::obj()
                    .set("nodes", stats.nodes_visited)
                    .set("rows", stats.rows_processed)
                    .set("elapsed_ms", stats.elapsed.as_millis() as u64),
            );
            (200, resp)
        }
    }
}

/// Parse the admin `types` spec (`"c,t,n"` — one letter per column).
fn admin_types(spec: &str) -> Result<Vec<ValueType>, String> {
    spec.split(',')
        .map(|t| match t.trim() {
            "c" => Ok(ValueType::Categorical),
            "t" => Ok(ValueType::Text),
            "n" => Ok(ValueType::Numeric),
            other => Err(format!("bad column type `{other}` (want c, t or n)")),
        })
        .collect()
}

/// `POST /admin/datasets` — register or replace a dataset at runtime
/// from inline CSV: `{name, csv, types?}`. Strict parse (no lossy
/// salvage): a defect in an uploaded table is the uploader's to fix.
fn admin_load(app: &AppState, req: &Request) -> (u16, Json) {
    // Track as in-flight so a drain never cuts a half-applied load.
    let _inflight = app.drain.track();
    if app.drain.is_draining() {
        return err(ErrorCode::Draining, "server is draining");
    }
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_owned())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(msg) => return err(ErrorCode::Parse, &msg),
    };
    let Some(name) = body.str_field("name") else {
        return err(ErrorCode::BadRequest, "missing `name` field");
    };
    let Some(csv) = body.str_field("csv") else {
        return err(ErrorCode::BadRequest, "missing `csv` field");
    };
    let types = match body.str_field("types") {
        Some(spec) => match admin_types(spec) {
            Ok(types) => Some(types),
            Err(msg) => return err(ErrorCode::InvalidConfig, &msg),
        },
        None => None,
    };
    let types = match types {
        Some(t) => t,
        None => {
            let cols = csv.lines().next().map_or(0, |h| h.split(',').count());
            vec![ValueType::Categorical; cols]
        }
    };
    let relation = match parse_csv(csv, &types) {
        Ok(r) => r,
        Err(e) => return err(ErrorCode::Parse, &e.to_string()),
    };
    let (rows, columns) = (relation.n_rows(), relation.n_attrs());
    crate::telemetry::dataset_bytes(name).set(relation.approx_bytes() as i64);
    let replaced = app.insert_dataset(name.to_owned(), relation);
    (
        200,
        Json::obj()
            .set("loaded", name)
            .set("rows", rows)
            .set("columns", columns)
            .set("replaced", replaced),
    )
}

fn rule_of(body: &Json) -> Result<&str, DeptreeError> {
    body.str_field("rule")
        .ok_or_else(|| DeptreeError::InvalidConfig("missing `rule` field".into()))
}

/// Build the per-request execution context: requested deadline clamped to
/// the server cap, optional node/row budgets, the drain cancel token, and
/// the server's thread count.
fn exec_for(app: &AppState, body: &Json) -> Result<Exec, String> {
    let deadline = match body.get("timeout_ms") {
        None => app.default_deadline,
        Some(v) => match v.as_u64() {
            Some(ms) => Duration::from_millis(ms).min(app.max_deadline),
            None => return Err("bad `timeout_ms` (want a non-negative integer)".into()),
        },
    };
    let mut budget = Budget::new().with_deadline(deadline);
    if let Some(v) = body.get("max_nodes") {
        match v.as_u64() {
            Some(n) => budget = budget.with_max_nodes(n),
            None => return Err("bad `max_nodes` (want a non-negative integer)".into()),
        }
    }
    if let Some(v) = body.get("max_rows") {
        match v.as_u64() {
            Some(n) => budget = budget.with_max_rows(n),
            None => return Err("bad `max_rows` (want a non-negative integer)".into()),
        }
    }
    Ok(Exec::with_cancel(budget, app.drain.cancel_token().clone()).with_threads(app.threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r1;

    fn app() -> AppState {
        app_with_cache(0)
    }

    fn app_with_cache(cache_bytes: usize) -> AppState {
        let mut datasets = BTreeMap::new();
        datasets.insert("hotels".to_owned(), hotels_r1());
        AppState::new(
            datasets,
            DrainState::new(),
            1,
            Duration::from_secs(10),
            Duration::from_secs(30),
            cache_bytes,
        )
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn health_and_ready_flip_on_drain() {
        let app = app();
        assert_eq!(handle(&app, &get("/healthz")).0, 200);
        assert_eq!(handle(&app, &get("/readyz")).0, 200);
        app.drain.begin();
        assert_eq!(handle(&app, &get("/healthz")).0, 200);
        let (status, body) = handle(&app, &get("/readyz"));
        assert_eq!(status, 503);
        assert_eq!(
            body.get("error").and_then(|e| e.str_field("code")),
            Some("draining")
        );
        // Task traffic is refused while draining.
        let (status, _) = handle(&app, &post("/v1/detect", r#"{"dataset":"hotels"}"#));
        assert_eq!(status, 503);
    }

    #[test]
    fn detect_round_trip() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post(
                "/v1/detect",
                r#"{"dataset":"hotels","rule":"address -> region"}"#,
            ),
        );
        assert_eq!(status, 200);
        let report = body.str_field("report").unwrap();
        assert!(report.contains("2 violation witness(es)"), "{report}");
        assert_eq!(body.bool_field("partial"), Some(false));
    }

    #[test]
    fn unknown_dataset_is_404() {
        let app = app();
        let (status, body) = handle(&app, &post("/v1/detect", r#"{"dataset":"nope"}"#));
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error").and_then(|e| e.str_field("code")),
            Some("not_found")
        );
    }

    #[test]
    fn bad_json_is_a_parse_error() {
        let app = app();
        let (status, body) = handle(&app, &post("/v1/discover", "{not json"));
        assert_eq!(status, 400);
        assert_eq!(
            body.get("error").and_then(|e| e.str_field("code")),
            Some("parse")
        );
    }

    #[test]
    fn wrong_method_and_unknown_route() {
        let app = app();
        assert_eq!(handle(&app, &get("/v1/discover")).0, 405);
        assert_eq!(handle(&app, &post("/healthz", "")).0, 405);
        assert_eq!(handle(&app, &get("/nope")).0, 404);
    }

    #[test]
    fn node_budget_yields_partial_with_cause() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post("/v1/discover", r#"{"dataset":"hotels","max_nodes":1}"#),
        );
        assert_eq!(status, 200);
        assert_eq!(body.bool_field("partial"), Some(true));
        assert_eq!(body.str_field("exhausted"), Some("nodes"));
    }

    #[test]
    fn repair_ships_csv() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post(
                "/v1/repair",
                r#"{"dataset":"hotels","rule":"address -> region"}"#,
            ),
        );
        assert_eq!(status, 200);
        let csv = body.str_field("csv").unwrap();
        assert!(csv.contains("name"), "{csv}");
        let report = body.str_field("report").unwrap();
        assert!(report.contains("rule now holds: true"), "{report}");
    }

    #[test]
    fn bad_budget_fields_are_invalid_config() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post("/v1/discover", r#"{"dataset":"hotels","timeout_ms":-5}"#),
        );
        assert_eq!(status, 400);
        assert_eq!(
            body.get("error").and_then(|e| e.str_field("code")),
            Some("invalid_config")
        );
    }

    #[test]
    fn admin_load_registers_a_dataset_for_immediate_queries() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post(
                "/admin/datasets",
                r#"{"name":"mini","csv":"a,b\n1,x\n1,x\n2,y\n","types":"c,c"}"#,
            ),
        );
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.str_field("loaded"), Some("mini"));
        assert_eq!(body.u64_field("rows"), Some(3));
        assert_eq!(body.bool_field("replaced"), Some(false));

        // The dataset is queryable under its registered name right away.
        let (status, body) = handle(
            &app,
            &post("/v1/validate", r#"{"dataset":"mini","rule":"a -> b"}"#),
        );
        assert_eq!(status, 200);
        assert!(body.str_field("report").unwrap().contains("holds = true"));

        // Re-posting the same name replaces, not duplicates.
        let (status, body) = handle(
            &app,
            &post(
                "/admin/datasets",
                r#"{"name":"mini","csv":"a,b\n1,x\n","types":"c,c"}"#,
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(body.bool_field("replaced"), Some(true));
    }

    #[test]
    fn admin_is_refused_while_draining_and_on_bad_input() {
        let app = app();
        let (status, body) = handle(&app, &post("/admin/datasets", r#"{"name":"x"}"#));
        assert_eq!(status, 400);
        assert!(body.get("error").is_some());
        let (status, _) = handle(
            &app,
            &post(
                "/admin/datasets",
                r#"{"name":"x","csv":"a\n1\n","types":"z"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert_eq!(handle(&app, &get("/admin/datasets")).0, 405);
        app.drain.begin();
        let (status, _) = handle(
            &app,
            &post("/admin/datasets", r#"{"name":"x","csv":"a\n1\n"}"#),
        );
        assert_eq!(status, 503);
    }

    #[test]
    fn batch_runs_items_in_order_under_one_envelope() {
        let app = app();
        let (status, body) = handle(
            &app,
            &post(
                "/v1/batch",
                r#"{"requests":[
                    {"task":"validate","dataset":"hotels","rule":"address -> region"},
                    {"task":"detect","dataset":"hotels","rule":"address -> region"},
                    {"task":"nope","dataset":"hotels"},
                    {"dataset":"hotels"}
                ]}"#,
            ),
        );
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.bool_field("partial"), Some(false));
        let responses = body.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].u64_field("status"), Some(200));
        assert_eq!(
            responses[0].get("body").and_then(|b| b.str_field("task")),
            Some("validate")
        );
        assert_eq!(responses[1].u64_field("status"), Some(200));
        assert!(responses[1]
            .get("body")
            .and_then(|b| b.str_field("report"))
            .unwrap()
            .contains("violation witness(es)"));
        // Unknown task name and missing task field each fail their item
        // without failing the envelope.
        assert_eq!(responses[2].u64_field("status"), Some(400));
        assert_eq!(responses[3].u64_field("status"), Some(400));
    }

    #[test]
    fn batch_shares_one_budget_and_reports_starved_items() {
        let app = app();
        // A zero-ms shared deadline: the first interrupted() check
        // already fails, so every item is starved and none executes.
        let (status, body) = handle(
            &app,
            &post(
                "/v1/batch",
                r#"{"timeout_ms":0,"requests":[
                    {"task":"validate","dataset":"hotels","rule":"address -> region"},
                    {"task":"detect","dataset":"hotels","rule":"address -> region"}
                ]}"#,
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(body.bool_field("partial"), Some(true));
        assert_eq!(body.u64_field("executed"), Some(0));
        let responses = body.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses.len(), 2);
        for resp in responses {
            assert_eq!(resp.u64_field("status"), Some(503));
            assert_eq!(
                resp.get("body")
                    .and_then(|b| b.get("error"))
                    .and_then(|e| e.str_field("code")),
                Some("budget_exhausted")
            );
        }
    }

    #[test]
    fn batch_rejects_missing_requests_and_oversized_batches() {
        let app = app();
        let (status, _) = handle(&app, &post("/v1/batch", r#"{"dataset":"hotels"}"#));
        assert_eq!(status, 400);
        let items: Vec<String> = (0..257)
            .map(|_| r#"{"task":"validate","dataset":"hotels","rule":"a -> b"}"#.to_owned())
            .collect();
        let big = format!(r#"{{"requests":[{}]}}"#, items.join(","));
        let (status, body) = handle(&app, &post("/v1/batch", &big));
        assert_eq!(status, 413, "{body:?}");
        assert_eq!(handle(&app, &get("/v1/batch")).0, 405);
    }

    #[test]
    fn cache_replays_identical_bytes_and_counts_a_hit() {
        let app = app_with_cache(1 << 20);
        let req = post(
            "/v1/detect",
            r#"{"dataset":"hotels","rule":"address -> region"}"#,
        );
        let key = app.cache_key(&req).expect("cacheable request");
        assert!(app.cache_lookup(&key).is_none());
        let (status, body) = handle(&app, &req);
        let stored = app.cache_store(key.clone(), status, &body).unwrap();
        assert_eq!(stored, body.render().into_bytes());
        assert_eq!(
            app.cache_lookup(&key),
            Some(stored),
            "hit replays the stored bytes"
        );
    }

    #[test]
    fn cache_key_is_canonical_across_field_order_and_whitespace() {
        let app = app_with_cache(1 << 20);
        let a = post(
            "/v1/detect",
            r#"{"dataset":"hotels","rule":"address -> region"}"#,
        );
        let b = post(
            "/v1/detect",
            r#"{ "rule": "address -> region", "dataset": "hotels" }"#,
        );
        let (ka, kb) = (app.cache_key(&a), app.cache_key(&b));
        assert!(ka.is_some());
        assert_eq!(ka, kb, "canonicalized bodies share one cache entry");
        // Different rule, different entry.
        let c = post(
            "/v1/detect",
            r#"{"dataset":"hotels","rule":"region -> address"}"#,
        );
        assert_ne!(app.cache_key(&c), ka);
    }

    #[test]
    fn cache_keys_are_version_scoped_and_mutations_invalidate() {
        let app = app_with_cache(1 << 20);
        let req = post("/v1/validate", r#"{"dataset":"mini","rule":"a -> b"}"#);
        assert!(
            app.cache_key(&req).is_none(),
            "unknown dataset is not cacheable"
        );
        let (status, _) = handle(
            &app,
            &post(
                "/admin/datasets",
                r#"{"name":"mini","csv":"a,b\n1,x\n","types":"c,c"}"#,
            ),
        );
        assert_eq!(status, 200);
        let key_v1 = app.cache_key(&req).unwrap();
        let (status, body) = handle(&app, &req);
        app.cache_store(key_v1.clone(), status, &body);
        assert!(app.cache_lookup(&key_v1).is_some());
        // Replacing the dataset bumps the version: the old entry is both
        // purged and unreachable, and the new key differs.
        let (status, _) = handle(
            &app,
            &post(
                "/admin/datasets",
                r#"{"name":"mini","csv":"a,b\n1,x\n2,y\n","types":"c,c"}"#,
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(app.cache_bytes(), 0, "mutation purged the entry");
        let key_v2 = app.cache_key(&req).unwrap();
        assert_ne!(key_v1, key_v2);
        assert!(app.cache_lookup(&key_v2).is_none());
    }

    #[test]
    fn partial_and_error_replies_are_never_cached() {
        let app = app_with_cache(1 << 20);
        // Partial: a node budget of 1 truncates discovery.
        let req = post("/v1/discover", r#"{"dataset":"hotels","max_nodes":1}"#);
        let key = app.cache_key(&req).unwrap();
        let (status, body) = handle(&app, &req);
        assert_eq!(status, 200);
        assert_eq!(body.bool_field("partial"), Some(true));
        assert!(app.cache_store(key.clone(), status, &body).is_none());
        assert!(app.cache_lookup(&key).is_none());
        // Error: a bad rule fails validation.
        let req = post("/v1/validate", r#"{"dataset":"hotels","rule":"@@"}"#);
        let key = app.cache_key(&req).unwrap();
        let (status, body) = handle(&app, &req);
        assert_ne!(status, 200);
        assert!(app.cache_store(key, status, &body).is_none());
    }

    #[test]
    fn budget_fields_beyond_f64_precision_are_invalid_config() {
        // 2^53 + 1 is not representable as f64; accepting it would
        // silently run with a different budget than the client asked for.
        let app = app();
        let (status, body) = handle(
            &app,
            &post(
                "/v1/discover",
                r#"{"dataset":"hotels","max_nodes":9007199254740993}"#,
            ),
        );
        assert_eq!(status, 400);
        assert_eq!(
            body.get("error").and_then(|e| e.str_field("code")),
            Some("invalid_config")
        );
    }
}
