//! `perfbench-probe`: the in-process half of the perfbench benchmark.
//!
//! It reads one JSON request on stdin and prints one JSON reply on stdout.
//!
//! * `{"cmd":"facts","dir":D}` lists the fixture's devices and the prefixes
//!   a sweep of it must report.
//! * `{"cmd":"oracle","dir":D,"queries":[..]}` answers with the exhaustive
//!   `BatfishLike` baseline. A `{"kind":"route","prefix":P,"device":X,"k":K}`
//!   query yields `min_failures` (`null` when the route survives every set
//!   of at most K failed links); `{"kind":"scope","prefix":P}` yields the
//!   devices that hold a route with every link up.
//! * `{"cmd":"layers","dir":D,"k":K,"threads":T,"queries":[..],"edits":[..]}`
//!   calls the public entry point of each layer in turn, with a span of its
//!   own around every call, and reads the program's `hoyan_obs` counters in
//!   two separately reset windows: one for the compile (`NetworkModel` plus
//!   `IsisDb`) and one for the sweep. Each edit `{"name":N,"dir":D}` is then
//!   applied in order, the way `hoyan serve` applies a `whatif` push: diff,
//!   compile, classify, reverify.
//!
//! No code here changes what the program computes; it only calls it.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io::Read;
use std::sync::Arc;
use std::time::Instant;

use hoyan_baselines::BatfishLike;
use hoyan_config::{parse_config, AclProto, ConfigSnapshot, DeviceConfig};
use hoyan_core::{CompiledNetwork, IsisDb, NetworkModel, SweepOptions, Verifier};
use hoyan_device::{Packet, VsbProfile};
use hoyan_nettypes::Ipv4Prefix;
use hoyan_obs::SpanAgg;
use hoyan_rt::json::{self, Value};

fn main() {
    let mut input = String::new();
    let reply = std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read stdin: {e}"))
        .and_then(|_| json::parse(&input).map_err(|e| format!("bad request: {e:?}")))
        .and_then(|req| match str_field(&req, "cmd")? {
            "facts" => facts(&req),
            "oracle" => oracle(&req),
            "layers" => layers(&req),
            other => Err(format!("unknown cmd `{other}`")),
        });
    match reply {
        Ok(v) => println!("{v}"),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(1);
        }
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn num_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or(&[])
}

fn prefix_field(v: &Value) -> Result<Ipv4Prefix, String> {
    let s = str_field(v, "prefix")?;
    s.parse().map_err(|_| format!("bad prefix `{s}`"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strs<'a>(items: impl IntoIterator<Item = &'a str>) -> Value {
    Value::Arr(
        items
            .into_iter()
            .map(|s| Value::Str(s.to_string()))
            .collect(),
    )
}

/// The `*.cfg` texts of a fixture directory, in file-name order (the order
/// `hoyan` loads them in).
fn read_texts(dir: &str) -> Result<Vec<String>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cfg"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn parse_all(texts: &[String]) -> Result<Vec<DeviceConfig>, String> {
    texts
        .iter()
        .map(|t| parse_config(t).map_err(|e| e.to_string()))
        .collect()
}

fn load(dir: &str) -> Result<Vec<DeviceConfig>, String> {
    parse_all(&read_texts(dir)?)
}

fn facts(req: &Value) -> Result<Value, String> {
    let configs = load(str_field(req, "dir")?)?;
    // The prefixes a sweep reports: what `Verifier` collects as known.
    let mut prefixes = BTreeSet::new();
    for c in &configs {
        if let Some(bgp) = &c.bgp {
            prefixes.extend(bgp.networks.iter().copied());
            prefixes.extend(bgp.aggregates.iter().map(|a| a.prefix));
        }
        prefixes.extend(c.static_routes.iter().map(|s| s.prefix));
    }
    let prefixes: Vec<String> = prefixes.iter().map(|p| p.to_string()).collect();
    let mut devices: Vec<&str> = configs.iter().map(|c| c.hostname.as_str()).collect();
    devices.sort();
    Ok(obj(vec![
        ("devices", strs(devices)),
        ("prefixes", strs(prefixes.iter().map(String::as_str))),
    ]))
}

fn oracle(req: &Value) -> Result<Value, String> {
    let configs = load(str_field(req, "dir")?)?;
    let net =
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).map_err(|e| e.to_string())?;
    let mut bf = BatfishLike::new(&net);
    let mut answers = Vec::new();
    for q in arr_field(req, "queries") {
        let prefix = prefix_field(q)?;
        let answer = match str_field(q, "kind")? {
            "route" => {
                let device = str_field(q, "device")?;
                let node = net
                    .topology
                    .node(device)
                    .ok_or_else(|| format!("unknown device `{device}`"))?;
                let k = num_field(q, "k")? as usize;
                match bf.min_failures_to_break(prefix, node, k) {
                    Some(Some(n)) => obj(vec![("min_failures", Value::Num(n as f64))]),
                    Some(None) => obj(vec![("min_failures", Value::Null)]),
                    None => return Err("BatfishLike ran out of budget".to_string()),
                }
            }
            "scope" => {
                let state = bf.simulate(&[prefix], &HashSet::new());
                let holders = net
                    .topology
                    .nodes()
                    .filter(|n| state.has_route(*n, prefix))
                    .map(|n| net.topology.name(n));
                obj(vec![("devices", strs(holders))])
            }
            other => return Err(format!("unknown oracle query kind `{other}`")),
        };
        answers.push(answer);
    }
    Ok(obj(vec![("answers", Value::Arr(answers))]))
}

/// One span of the benchmark's own trace: a call into a layer.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Records nested spans in memory; they are written out by the caller.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &str) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("end without begin");
        let span = &mut self.spans[i];
        span.end_s = self.t0.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_s", Value::Num(s.start_s)),
                        ("end_s", Value::Num(s.end_s)),
                    ])
                })
                .collect(),
        )
    }
}

/// The program's counters, gauges and span totals accumulated since the
/// last `hoyan_obs::reset`.
struct Window {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    spans: BTreeMap<String, SpanAgg>,
}

impl Window {
    fn take() -> Window {
        hoyan_obs::flush_thread();
        let w = Window {
            counters: hoyan_obs::counter_values(),
            gauges: hoyan_obs::gauge_values(),
            spans: hoyan_obs::span_values(),
        };
        hoyan_obs::reset();
        w
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0) as f64
    }

    /// Thread-seconds spent in every span named `name`, at any depth.
    fn span_s(&self, name: &str) -> f64 {
        let suffix = format!("/{name}");
        self.spans
            .iter()
            .filter(|(path, _)| *path == name || path.ends_with(&suffix))
            .map(|(_, agg)| agg.total_ns as f64 / 1e9)
            .sum()
    }

    fn ite_hit_rate(&self) -> f64 {
        let hits = self.counter("bdd.ite_cache_hits");
        let total = hits + self.counter("bdd.ite_cache_misses");
        if total > 0.0 {
            hits / total
        } else {
            0.0
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn layers(req: &Value) -> Result<Value, String> {
    let dir = str_field(req, "dir")?;
    let k = num_field(req, "k")? as u32;
    let threads = num_field(req, "threads")? as usize;
    // The CLI compiles the IS-IS database at this budget for every k.
    let isis_k = Some(k.max(3));
    let opts = SweepOptions::default();
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    hoyan_obs::set_enabled(true);
    hoyan_obs::set_timing(true);
    hoyan_obs::register_default_metrics();
    let mut tr = Tracer::new();

    let texts = read_texts(dir)?;
    tr.begin("config.parse");
    let configs = parse_all(&texts)?;
    put("config.parse_s", tr.end());

    hoyan_obs::reset();
    tr.begin("compile");
    tr.begin("core.network.model");
    let net = NetworkModel::from_configs(configs.clone(), VsbProfile::ground_truth)
        .map_err(|e| e.to_string())?;
    put("core.network.model_s", tr.end());
    tr.begin("core.isis.build");
    let isis = IsisDb::build(&net, isis_k).map_err(|e| e.to_string())?;
    put("core.isis.build_s", tr.end());
    tr.end();
    let compile = Window::take();
    let v = Verifier::from_compiled(CompiledNetwork {
        net: Arc::new(net),
        isis: Arc::new(isis),
        isis_k,
    });

    let edits = arr_field(req, "edits");
    // When edits follow, time the cached sweep a daemon keeps as the
    // baseline for its pushes; otherwise the plain sweep `hoyan sweep` runs.
    // Both run the same family sweep.
    tr.begin("core.verify.sweep");
    let (swept, mut cache) = if edits.is_empty() {
        let report = v
            .verify_all_routes_opts(k, threads, &opts)
            .map_err(|e| e.to_string())?;
        (report, None)
    } else {
        let (report, cache) = v
            .verify_all_routes_cached_opts(k, threads, &opts)
            .map_err(|e| e.to_string())?;
        (report, Some(cache))
    };
    let sweep_wall = tr.end();
    put("core.verify.sweep_s", sweep_wall);
    let sweep = Window::take();
    if !swept.quarantined.is_empty() {
        return Err(format!(
            "{} family(ies) quarantined",
            swept.quarantined.len()
        ));
    }

    tr.begin("core.verify.oneshot");
    let mut query_s = Vec::new();
    for q in arr_field(req, "queries") {
        let prefix = prefix_field(q)?;
        let kind = str_field(q, "kind")?;
        tr.begin(&format!("core.verify.oneshot.{kind}"));
        match kind {
            "verify" => {
                v.route_reachability(prefix, str_field(q, "device")?, num_field(q, "k")? as u32)
                    .map_err(|e| e.to_string())?;
            }
            "packet" => {
                let packet = Packet {
                    src: "192.0.2.1".parse().expect("literal address"),
                    dst: prefix.network(),
                    proto: AclProto::Tcp,
                };
                v.packet_reachability(
                    str_field(q, "device")?,
                    prefix,
                    packet,
                    num_field(q, "k")? as u32,
                )
                .map_err(|e| e.to_string())?;
            }
            "scope" => {
                v.propagation_scope(prefix).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown query kind `{other}`")),
        }
        query_s.push(tr.end());
    }
    tr.end();
    put("core.verify.oneshot_query_s", median(query_s));

    put("core.isis.bdd_ops", compile.counter("bdd.ops"));
    put("core.isis.peak_nodes", compile.gauge("bdd.peak_nodes"));
    put("core.isis.spf_thread_s", compile.span_s("isis.spf"));
    for (window, w) in [("compile", &compile), ("sweep", &sweep)] {
        put(&format!("logic.bdd.{window}_ops"), w.counter("bdd.ops"));
        put(
            &format!("logic.bdd.{window}_ite_hit_rate"),
            w.ite_hit_rate(),
        );
        put(
            &format!("logic.bdd.{window}_peak_nodes"),
            w.gauge("bdd.peak_nodes"),
        );
        put(
            &format!("logic.bdd.{window}_nodes_created"),
            w.counter("bdd.nodes_created"),
        );
    }
    put(
        "logic.bdd.gc_runs",
        compile.counter("bdd.gc_runs") + sweep.counter("bdd.gc_runs"),
    );
    put("core.verify.schedule_s", sweep.span_s("verify.schedule"));
    put(
        "core.verify.sched_batches",
        sweep.counter("verify.sched_batches"),
    );
    put(
        "core.verify.sched_steals",
        sweep.gauge("verify.sched_steals"),
    );
    put(
        "core.verify.worker_busy_share",
        sweep.span_s("verify.family") / (threads.max(1) as f64 * sweep_wall),
    );
    put("core.propagate.sim_thread_s", sweep.span_s("verify.sim"));
    put("core.verify.query_thread_s", sweep.span_s("verify.query"));
    put("core.propagate.steps", sweep.counter("propagate.steps"));
    let delivered = sweep.counter("propagate.delivered");
    let dropped: f64 = ["dropped_over_k", "dropped_policy", "dropped_impossible"]
        .iter()
        .map(|d| sweep.counter(&format!("propagate.{d}")))
        .sum();
    put("core.propagate.delivered", delivered);
    put(
        "core.propagate.max_formula_len",
        sweep.gauge("propagate.max_formula_len"),
    );
    put(
        "core.propagate.useful_share",
        if delivered + dropped > 0.0 {
            delivered / (delivered + dropped)
        } else {
            0.0
        },
    );

    let mut snap = ConfigSnapshot::new(configs);
    for edit in edits {
        let base = cache.take().expect("edits come with a cached sweep");
        let name = str_field(edit, "name")?;
        let next = ConfigSnapshot::new(load(str_field(edit, "dir")?)?);
        tr.begin(&format!("whatif.{name}"));
        tr.begin("config.diff");
        let delta = snap.diff(&next);
        put(&format!("config.diff_s.{name}"), tr.end());
        tr.begin("core.snapshot.compile");
        let v2 = Verifier::new(next.devices().to_vec(), VsbProfile::ground_truth, isis_k)
            .map_err(|e| e.to_string())?;
        put(&format!("core.snapshot.compile_s.{name}"), tr.end());
        tr.begin("core.snapshot.classify");
        let classes = v2.classify_families(&delta, &base, k);
        put(&format!("core.snapshot.classify_s.{name}"), tr.end());
        tr.begin("core.verify.reverify");
        let outcome = v2
            .reverify_opts(&delta, &base, k, threads, &opts)
            .map_err(|e| e.to_string())?;
        put(&format!("core.verify.reverify_s.{name}"), tr.end());
        tr.end();
        let dirty = classes.iter().filter(|(_, r)| r.is_some()).count();
        put(
            &format!("core.snapshot.dirty_share.{name}"),
            dirty as f64 / classes.len().max(1) as f64,
        );
        put(
            &format!("core.verify.families_recomputed.{name}"),
            outcome.recomputed as f64,
        );
        put(
            &format!("core.verify.families_reused.{name}"),
            outcome.reused as f64,
        );
        if !outcome.quarantined.is_empty() {
            return Err(format!(
                "edit {name}: {} family(ies) quarantined",
                outcome.quarantined.len()
            ));
        }
        cache = Some(outcome.cache);
        snap = next;
    }

    let metrics = Value::Obj(m.into_iter().map(|(k, v)| (k, Value::Num(v))).collect());
    Ok(obj(vec![("metrics", metrics), ("spans", tr.to_json())]))
}
