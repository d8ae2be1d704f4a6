//! perfbench — the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ibd-ebv|ibd-baseline-disk|sync-tcp-ebv|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up [`SETUP_REPS`] times (chain generation,
//! intermediary conversion, serialization, node boot, server bind) and
//! reports the median as `setup_s`. It then measures whole passes — a fresh
//! node taking the whole chain — until `--seconds` have elapsed, checks
//! every pass's output, and prints every metric by name with its unit.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts
//! blocks handed to a node; `failed` counts rejected blocks plus failed
//! output checks, so `failed / attempted` is the block fail ratio.
//!
//! `--trace 0` measures with telemetry off and reports the end-to-end
//! metrics. `--trace 1` alternates untraced and traced passes, switching
//! the `ebv_telemetry` registry on for the traced ones, and reports the
//! per-layer metrics. See `METRICS.md` for what each metric should move.

mod chain;
mod metrics;
mod passes;

use chain::Chain;
use ebv_core::{BaselineNode, EbvNode, TcpServer};
use ebv_telemetry::json::{self, Value};
use ebv_telemetry::Stopwatch;
use metrics::{RunFacts, END_TO_END, PER_LAYER};
use passes::{EndState, Pass};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Chain length (blocks after genesis) every workload replays.
const DEFAULT_BLOCKS: u32 = 1040;
/// Slack allowed when checking that leaf layers fit inside the wall.
const LAYER_SLACK_S: f64 = 1e-3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    IbdEbv,
    IbdBaselineDisk,
    /// Runnable, but not listed in `BENCHMARK.json`: the TCP server resets
    /// an honest connection often enough to ban the only peer and fail the
    /// output check (see `METRICS.md`).
    SyncTcpEbv,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::IbdEbv,
        Workload::IbdBaselineDisk,
        Workload::SyncTcpEbv,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::IbdEbv => "ibd-ebv",
            Workload::IbdBaselineDisk => "ibd-baseline-disk",
            Workload::SyncTcpEbv => "sync-tcp-ebv",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Replays the EBV format (else the baseline format).
    fn ebv(self) -> bool {
        self != Workload::IbdBaselineDisk
    }
}

struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Chain length: [`DEFAULT_BLOCKS`], shorter only in tests.
    blocks: u32,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ibd-ebv|ibd-baseline-disk|sync-tcp-ebv|all> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        blocks: DEFAULT_BLOCKS,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => args.workload = Some(Workload::parse(value).unwrap_or_else(|| bad())),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    let result = match args.workload {
        Some(w) => run(w, &args),
        None => run_all(&raw),
    };
    println!("{}", json::serialize(&result.to_json()));
    ExitCode::SUCCESS
}

/// A run's verdict and metrics: the last stdout line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let correct = self.failed == 0;
        // A run that failed its check prints no metric.
        let metrics = if correct { &self.metrics[..] } else { &[] };
        let metrics = metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Value::Number(*value)),
                    ("unit".to_string(), Value::String(unit.clone())),
                ]);
                (name.clone(), Value::Object(entry))
            })
            .collect();
        Value::Object(BTreeMap::from([
            ("correct".to_string(), Value::Bool(correct)),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }
}

/// Re-run this program once per workload and combine the verdicts; metric
/// names gain a `<workload>.` prefix.
fn run_all(raw: &[String]) -> RunResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut combined = RunResult {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().expect("flags parsed already");
            if flag != "--workload" {
                cmd.args([flag, value]);
            }
        }
        let out = cmd
            .args(["--workload", w.name()])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a workload run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(v) = json::parse(last).map_err(|e| eprintln!("perfbench: {}: {e}", w.name())) else {
            combined.failed += 1;
            continue;
        };
        let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        combined.attempted += num("attempted");
        combined.failed += num("failed").max(u64::from(!out.status.success()));
        if let Some(Value::Object(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                let name = format!("{}.{name}", w.name());
                combined.metrics.push((name, value, unit.to_string()));
            }
        }
    }
    combined
}

/// Everything set up for the passes of one run.
struct Bench {
    chain: Chain,
    server: Option<TcpServer>,
    tmp: PathBuf,
}

/// A freshly booted node of the workload's kind.
enum Booted {
    Ebv(Box<EbvNode>),
    Baseline(Box<BaselineNode>),
}

impl Bench {
    /// Generate, convert, serialize, bind and boot: the timed set-up.
    fn set_up(w: Workload, args: &Args, tmp: &Path) -> (Bench, Booted) {
        let chain = Chain::build(args.blocks, args.seed, w.ebv());
        let server = (w == Workload::SyncTcpEbv).then(|| passes::bind_server(&chain));
        let bench = Bench {
            chain,
            server,
            tmp: tmp.to_path_buf(),
        };
        let node = bench.boot(w);
        (bench, node)
    }

    /// A fresh node; a baseline node reuses one log path, since only one
    /// node is alive at a time and booting empties the log.
    fn boot(&self, w: Workload) -> Booted {
        match w {
            Workload::IbdBaselineDisk => {
                let log = passes::log_path(&self.tmp, "pass");
                Booted::Baseline(Box::new(passes::boot_baseline(
                    &self.chain.blocks[0],
                    &log,
                    passes::BASELINE_CACHE_BYTES,
                    true,
                )))
            }
            _ => Booted::Ebv(Box::new(passes::boot_ebv(&self.chain.ebv_blocks[0]))),
        }
    }

    fn pass(&self, node: Booted) -> Pass {
        match (node, &self.server) {
            (Booted::Ebv(n), Some(server)) => passes::sync_tcp(*n, server, &self.chain),
            (Booted::Ebv(n), None) => passes::replay(*n, &self.chain.wire),
            (Booted::Baseline(n), _) => passes::replay(*n, &self.chain.wire),
        }
    }
}

/// The reference a pass's output is checked against.
struct Expected {
    tip: ebv_primitives::hash::Hash256,
    /// From an independent walk of the generated chain.
    unspent: u64,
    /// The baseline node's UTXO count for the same chain (`ibd-ebv`).
    baseline_unspent: Option<u64>,
}

impl Expected {
    fn of(bench: &Bench, w: Workload) -> Expected {
        Expected {
            tip: bench.chain.tip(),
            unspent: bench.chain.unspent_by_walk().unwrap_or_else(|e| {
                eprintln!("perfbench: generated chain fails the walk: {e}");
                u64::MAX
            }),
            baseline_unspent: (w == Workload::IbdEbv).then(|| baseline_unspent(bench)),
        }
    }
}

/// Blocks attempted and failures (rejected blocks plus failed output
/// checks) over `passes`; each failed check is reported on stderr.
fn tally<'a>(
    passes: impl IntoIterator<Item = &'a Pass>,
    expected: &Expected,
    transport: bool,
) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for pass in passes {
        attempted += pass.attempted;
        failed += pass.rejected;
        for failure in check(pass, expected, transport) {
            eprintln!("perfbench: output check failed: {failure}");
            failed += 1;
        }
    }
    (attempted, failed)
}

/// Failed output checks of one pass, described.
fn check(pass: &Pass, expected: &Expected, transport: bool) -> Vec<String> {
    let EndState { tip, unspent, .. } = pass.end;
    let mut failures = Vec::new();
    if tip != expected.tip {
        failures.push(format!("tip {tip} != generated tip {}", expected.tip));
    }
    if unspent != expected.unspent {
        failures.push(format!(
            "unspent {unspent} != {} from walking the chain",
            expected.unspent
        ));
    }
    if let Some(b) = expected.baseline_unspent {
        if unspent != b {
            failures.push(format!("unspent {unspent} != baseline UTXO count {b}"));
        }
    }
    // Leaves are disjoint slices of the wall, and the node's phases are
    // slices of the time inside the node: neither sum may exceed its whole.
    let unattributed = metrics::unattributed_s(pass, transport);
    let phases: f64 = pass.phases.iter().map(|(_, s)| s).sum();
    if unattributed < -LAYER_SLACK_S || phases > pass.node_s + LAYER_SLACK_S {
        failures.push(format!(
            "layer times exceed their whole: unattributed {unattributed:.6} s, \
             phases {phases:.6} s of {:.6} s in the node",
            pass.node_s
        ));
    }
    failures
}

/// Run one workload: set up, measure, check.
fn run(w: Workload, args: &Args) -> RunResult {
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).expect("scratch directory inside the checkout");
    let result = measure(w, args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    result
}

fn measure(w: Workload, args: &Args, tmp: &Path) -> RunResult {
    println!("{}", json::serialize(&record(w, args)));
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut convert_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up (and stop its server) first.
        drop(prepared.take());
        let clock = Stopwatch::start();
        let (bench, node) = Bench::set_up(w, args, tmp);
        setup_s.push(clock.elapsed().as_secs_f64());
        generate_s.push(bench.chain.generate_s);
        convert_s.push(bench.chain.convert_s);
        prepared = Some((bench, node));
    }
    let (mut bench, first) = prepared.expect("at least one set-up");

    let chain = &bench.chain;
    let facts = RunFacts {
        inputs: chain.inputs(),
        block_bytes: chain.wire[1..].iter().map(|b| b.len() as f64).sum::<f64>()
            / (chain.wire.len() - 1) as f64,
        setup_s,
        generate_s,
        convert_s,
        ebv: w.ebv(),
        transport: bench.server.is_some(),
    };

    // Measure whole passes until the time is up; a traced run follows each
    // untraced pass with a traced one, and their walls give the overhead.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let clock = Stopwatch::start();
    let mut next = Some(first);
    while untraced.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let node = next.take().unwrap_or_else(|| bench.boot(w));
        untraced.push(bench.pass(node));
        if args.trace {
            let node = bench.boot(w);
            ebv_telemetry::global().reset();
            ebv_telemetry::set_enabled(true);
            let pass = bench.pass(node);
            ebv_telemetry::set_enabled(false);
            let paired_wall = untraced.last().map_or(f64::NAN, |p: &Pass| p.wall_s);
            traced.push((pass, ebv_telemetry::global().snapshot(), paired_wall));
        }
    }
    drop(bench.server.take());

    let expected = Expected::of(&bench, w);
    let all = untraced.iter().chain(traced.iter().map(|(p, ..)| p));
    let (attempted, failed) = tally(all, &expected, facts.transport);

    let (table, values) = if args.trace {
        let per_pass: Vec<_> = traced
            .iter()
            .map(|(p, snap, paired_wall)| metrics::per_layer(&facts, p, snap, *paired_wall))
            .collect();
        let medians = PER_LAYER
            .iter()
            .map(|(name, _)| {
                let v: Vec<f64> = per_pass.iter().map(|m| m[*name]).collect();
                (name.to_string(), metrics::median(&v))
            })
            .collect();
        (PER_LAYER, medians)
    } else {
        (
            END_TO_END,
            metrics::end_to_end(&facts, &untraced, peak_rss_mb()),
        )
    };
    let metrics: Vec<_> = table
        .iter()
        .map(|(name, unit)| (name.to_string(), values[*name], unit.to_string()))
        .collect();

    println!(
        "workload {} seed {}: {} untraced + {} traced passes; block percentiles over {} \
         per-block medians; block_fail_ratio {failed}/{attempted}",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        metrics::per_block_medians(&untraced).len(),
    );
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!("  untraced pass walls (s): {}", walls.join(" "));
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

/// The baseline node's UTXO count after the same chain (no injected
/// latency, a cache holding the whole set), for the `ibd-ebv` check.
fn baseline_unspent(bench: &Bench) -> u64 {
    let blocks = &bench.chain.blocks;
    let log = passes::log_path(&bench.tmp, "reference");
    let mut node = passes::boot_baseline(&blocks[0], &log, 64 << 20, false);
    for block in &blocks[1..] {
        if let Err(e) = node.process_block(block) {
            eprintln!("perfbench: baseline reference rejects a block: {e}");
            return u64::MAX;
        }
    }
    node.utxos().size().count
}

/// Peak resident set size of this process (Linux `VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host, commit, seed and full workload configuration, printed before the
/// result line.
fn record(w: Workload, args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let command_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // Only a checkout that is itself a git repository names its commit
    // (git would otherwise report an enclosing repository's).
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let s = |v: String| Value::String(v);
    let config = BTreeMap::from([
        ("workload".into(), s(w.name().into())),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("setup_reps".into(), Value::Number(SETUP_REPS as f64)),
        ("validator_workers".into(), Value::Number(nproc as f64)),
        (
            "generator".into(),
            s(format!("{:?}", chain::params(args.blocks, args.seed))),
        ),
        (
            "ebv_node".into(),
            s(format!("{:?}", ebv_core::EbvConfig::default())),
        ),
        (
            "baseline_node".into(),
            s(format!(
                "{:?}, cache {} B, disk latency read {} us / write {} us",
                ebv_core::BaselineConfig::default(),
                passes::BASELINE_CACHE_BYTES,
                passes::DISK_READ_US,
                passes::DISK_WRITE_US
            )),
        ),
        (
            "sync".into(),
            s(format!(
                "{:?}, {:?}",
                ebv_core::SyncConfig::default(),
                ebv_core::WireConfig::default()
            )),
        ),
    ]);
    let host = BTreeMap::from([
        ("nproc".into(), Value::Number(nproc as f64)),
        ("cpu".into(), s(cpu)),
        ("rustc".into(), s(command_line(&rustc, &["--version"]))),
    ]);
    Value::Object(BTreeMap::from([(
        "perfbench_record".into(),
        Value::Object(BTreeMap::from([
            ("host".into(), Value::Object(host)),
            ("commit".into(), s(commit)),
            ("config".into(), Value::Object(config)),
        ])),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_primitives::encode::Encodable;

    const BLOCKS: u32 = 40;
    const SEED: u64 = 7;

    fn args() -> Args {
        Args {
            workload: None,
            seed: SEED,
            seconds: 0.1,
            trace: false,
            blocks: BLOCKS,
        }
    }

    /// Set up `w`, optionally corrupt one block's Merkle root in both the
    /// served and the replayed copy, run one pass and tally it.
    fn one_pass(w: Workload, tamper: Option<usize>) -> (u64, u64) {
        let tmp = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_tmp")
            .join(format!("test-{}-{w:?}-{tamper:?}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let (mut bench, _) = Bench::set_up(w, &args(), &tmp);
        let expected = Expected::of(&bench, w);
        if let Some(k) = tamper {
            let chain = &mut bench.chain;
            if w.ebv() {
                chain.ebv_blocks[k].header.merkle_root = Default::default();
                chain.wire[k] = chain.ebv_blocks[k].to_bytes();
            } else {
                chain.blocks[k].header.merkle_root = Default::default();
                chain.wire[k] = chain.blocks[k].to_bytes();
            }
            if bench.server.is_some() {
                bench.server = Some(passes::bind_server(&bench.chain));
            }
        }
        let node = bench.boot(w);
        let pass = bench.pass(node);
        let counts = tally([&pass], &expected, bench.server.is_some());
        std::fs::remove_dir_all(&tmp).unwrap();
        let _ = std::fs::remove_dir(tmp.parent().unwrap());
        counts
    }

    #[test]
    fn untampered_chains_pass_every_check() {
        for w in Workload::ALL {
            assert_eq!(one_pass(w, None), (BLOCKS as u64, 0), "{w:?}");
        }
    }

    #[test]
    fn a_tampered_block_is_reported_as_a_failure() {
        for w in Workload::ALL {
            let (attempted, failed) = one_pass(w, Some(BLOCKS as usize / 2));
            assert!(attempted >= 1, "{w:?}");
            // The rejected block, plus the checks on the short chain.
            assert!(failed >= 2, "{w:?}: {failed} failures");
        }
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(metrics::median(&v), 50.5);
        assert_eq!(metrics::percentile(&v, 0.5), 50.0);
        assert_eq!(metrics::percentile(&v, 0.99), 99.0);
        assert_eq!(metrics::median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(END_TO_END));
        assert_eq!(list("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL
            .iter()
            .filter(|w| **w != Workload::SyncTcpEbv)
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
