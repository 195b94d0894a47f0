//! `enforce` — command-line front end to the enforcement toolkit.
//!
//! ```text
//! enforce run       <file.fc> --input 3,4 [--fuel N]
//! enforce surveil   <file.fc> --allow 2 --input 3,4 [--timed] [--highwater]
//! enforce trace     <file.fc> --input 3,4 [--allow 2] [--json] [--timed] [--highwater] [--engine ast|vm]
//! enforce check     <file.fc> --allow 2 --span 3 [--timed] [--highwater] [--threads N] [--engine ast|vm]
//!                   [--deadline SECS] [--budget N] [--checkpoint FILE] [--resume FILE] [--block N]
//!                   [--schedules K]
//! enforce compile   <file.fc> [--dump]
//! enforce certify   <file.fc> --allow 2 [--scoped | --value | --relational | --dynamic]
//!                   | --lattice [--clearance LEVEL]
//! enforce refute    <file.fc> --allow 2 [--span S] [--threads N] [--fuel N] [--json]
//!                   [--deadline SECS] [--budget N]
//! enforce lint      <file.fc> --allow 2 [--json] | --lattice [--clearance LEVEL] [--json]
//! enforce explain   <file.fc> --allow 2 --input 3,4 [--timed] [--highwater]
//! enforce improve   <file.fc> --allow 2 --span 3 [--rounds N]
//! enforce instrument <file.fc> --allow 2 [--timed] [--highwater] [--dot]
//! enforce dot       <file.fc> [--taint [--scoped | --input 3,4 [--allow 2] [--timed] [--highwater]]]
//! enforce serve     [--listen H:P | --unix PATH] [--workers N] [--queue N] [--quota N]
//!                   [--state DIR] [--cache N] [--fuel N] [--retry-after MS] [--chaos]
//! enforce client    <op> [file.fc|-] --addr H:P|unix:PATH [--tenant T] [--job ID] [--allow J]
//!                   [--input a,b] [--span S] [--deadline-ms N] [--budget N] [--block N] [--fuel N]
//!                   [--attempts N] [--timeout-ms N] [--chaos-kill]
//! ```
//!
//! `<file.fc>` contains a program in the DSL (see the crate docs); `-` reads
//! from stdin. `--allow` lists the allowed input indices (comma separated;
//! empty string for `allow()`), `--input` an input tuple, `--span S` checks
//! over the hypercube `[-S, S]^k`. A command refuses every flag its line
//! above does not give; `--fuel N` also bounds `surveil`, `trace`,
//! `check`, `explain` and `dot --input` runs, and `--audit F` appends
//! `surveil`, `certify` and `check` records to a trail.
//!
//! Exit codes: `0` success, `1` a violation or refuted/unestablished
//! verdict, `2` usage or parse error, `3` internal fault (panicking
//! subject, corrupt checkpoint).

use enforcement::core::{
    check_soundness_scheduled, validate_scheduled_witness, CancelToken, EnfError, EvalConfig,
    Verdict,
};
use enforcement::flowchart::bytecode::Compiled;
use enforcement::flowchart::dot::{to_dot, to_dot_decorated, NodeDecor};
use enforcement::flowchart::interp::ExecValue;
use enforcement::flowchart::pretty::flowchart_to_string;
use enforcement::policy::audit::hash_hex;
use enforcement::policy::{
    check_salt, sweep_grid, Discipline, Engine, PolicyError, ScheduledOutcome,
};
use enforcement::prelude::*;
use enforcement::staticflow::certify::certify;
use enforcement::staticflow::dataflow::PcDiscipline;
use enforcement::staticflow::search::improve;
use enforcement::surveillance::dynamic::SurvConfig;
use enforcement::surveillance::explain;
use enforcement::surveillance::instrument::{instrument_with, instrumentable};
use std::io::Read as _;
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next(),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    fn value(&self, name: &str) -> Result<&str, String> {
        match self.flag(name) {
            Some(Some(v)) => Ok(v),
            Some(None) => Err(format!("--{name} needs a value")),
            None => Err(format!("missing --{name}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: enforce <command> <file.fc|-> [flags]\n\
     commands:\n\
       run        execute the program        --input a,b [--fuel N]\n\
       surveil    run under surveillance     --allow J --input a,b [--timed] [--highwater]\n\
       trace      per-step taint trace       --input a,b [--allow J] [--json] [--timed] [--highwater] [--engine ast|vm]\n\
       check      soundness over a grid      --allow J --span S [--timed] [--highwater] [--threads N] [--engine ast|vm]\n\
       \x20                                  [--deadline SECS] [--budget N] [--checkpoint F] [--resume F] [--block N]\n\
       \x20                                  [--schedules K]\n\
       compile    lower to register bytecode [--dump]\n\
       certify    static certification       --allow J [--scoped | --value | --relational | --dynamic]\n\
       \x20                                  | --lattice [--clearance LEVEL]\n\
       refute     leak witness search        --allow J [--span S] [--threads N] [--fuel N] [--json]\n\
       \x20                                  [--deadline SECS] [--budget N]\n\
       lint       static diagnostics         --allow J [--json] | --lattice [--clearance LEVEL]\n\
       explain    why a run violates         --allow J --input a,b [--timed] [--highwater]\n\
       improve    transform search           --allow J --span S [--rounds N]\n\
       instrument emit the mechanism         --allow J [--timed] [--highwater] [--dot]\n\
       dot        emit Graphviz of program   [--taint [--scoped | --input a,b [--allow J]\n\
       \x20                                  [--timed] [--highwater]]]\n\
       audit      verify an audit trail      audit verify <log.jsonl> [--json]\n\
       serve      run the policy server      [--listen H:P | --unix PATH] [--workers N] [--queue N]\n\
       \x20                                  [--quota N] [--state DIR] [--cache N] [--fuel N]\n\
       \x20                                  [--retry-after MS] [--chaos]\n\
       client     send one job to a server   <op> [file.fc|-] --addr H:P|unix:PATH [--tenant T]\n\
       \x20                                  [--job ID] [--allow J] [--input a,b] [--span S]\n\
       \x20                                  [--deadline-ms N] [--budget N] [--block N] [--fuel N]\n\
       \x20                                  [--attempts N] [--timeout-ms N] [--chaos-kill]\n\
     J is a comma list of allowed input indices ('' = allow()).\n\
     run, surveil, trace, check, refute, explain and dot take --fuel N,\n\
     the step budget of each run (default 1000000). A command refuses\n\
     every flag its line does not give (exit 2).\n\
     surveil, certify and check accept --audit F: every grant, attest,\n\
     refusal, sweep and release is appended to a hash-chained JSONL trail\n\
     at F (created or chain-verified and extended); audit verify re-derives\n\
     the chain and exits 0 intact / 1 tampered.\n\
     trace emits one line per executed box (taint deltas, PC taint, branch\n\
     taken) and a final verdict; --json switches to JSONL. --allow defaults\n\
     to every index (pure observation). dot --taint --input annotates the\n\
     graph from the same dynamic trace instead of the static analysis.\n\
     check honors --deadline (wall-clock seconds), --budget (max inputs),\n\
     and SIGINT: an interrupted sweep reports partial coverage and exits 1.\n\
     --checkpoint F persists progress every --block inputs (default 4096);\n\
     --resume F continues a previous sweep from its last checkpoint.\n\
     certify picks the analysis: surveillance abstraction (default),\n\
     --scoped (Denning-style regions), --value (interval-refined),\n\
     --relational (self-composition agreement), --dynamic (the\n\
     policy-schedule certifier), or --lattice (the intransitive-flow\n\
     certifier; flags are exclusive). --lattice ignores --allow and reads\n\
     the program's labels { xN: LEVEL; flow A ~> B; } section instead,\n\
     judging halts at --clearance LEVEL (default unclassified; levels:\n\
     unclassified|confidential|secret|topsecret). A declassify box then\n\
     launders only flows the ~> edges sanction. lint --lattice lints\n\
     against the clearance's induced policy and renders label names in\n\
     every taint finding and carrier chain.\n\
     check --schedules K runs the scheduled oracle instead of the fixed\n\
     sweep: soundness is checked under every bounded policy schedule (at\n\
     most K of the canonical enumeration); a failing schedule is reported\n\
     with its replay-validated witness pair. There --deadline, --budget\n\
     (max schedules) and SIGINT are read between schedules, the deadline\n\
     once every 256: one schedule's input sweep is never cut, and a cut\n\
     sweep prints the schedules it checked and exits 1.\n\
     refute runs the relational certifier and, on rejection, sweeps\n\
     [-S, S]^k (--span S, default 3) as check sweeps a mechanism, but on\n\
     the bare program: the witness is the first input whose released\n\
     outcome differs from an earlier J-agreeing one's, paired with the\n\
     first input of its class, and the sweep ends there; it is the same\n\
     for every --threads count. --deadline, --budget and SIGINT cut the\n\
     sweep as they cut check's: the first conflict of the inputs swept\n\
     is still reported, and without one refute prints unknown with the\n\
     inputs checked. On programs with policy\n\
     boxes refute runs the --dynamic certifier instead and searches for a\n\
     replay-validated scheduled witness (input pair + schedule); that\n\
     search takes no --deadline or --budget.\n\
     trace and check run on the register-bytecode VM by default\n\
     (--engine vm); --engine ast selects the flowchart stepper. The two\n\
     engines are bit-identical: same events, verdicts and witnesses.\n\
     check --timed always runs the stepper and refuses --engine.\n\
     compile prints the lowered program's summary line; --dump prints the\n\
     full instruction listing.\n\
     serve runs the multi-tenant enforcement service in the foreground\n\
     (default --listen 127.0.0.1:0; the bound address is printed first).\n\
     Each job runs on the thread of the connection that sent it: at most\n\
     --workers N (default 4) run at once, at most --queue N (default 64)\n\
     more wait and start in arrival order, and the next is shed with a\n\
     retry hint. SIGTERM or SIGINT drains: running and waiting jobs\n\
     finish, and the drain report is printed as JSON. Exit 0 is a clean\n\
     life, exit 1 a degraded one (a job panicked and was quarantined, or\n\
     an internal fault was reported). client sends one job (op: ping, surveil, certify, check\n\
     or refute) with timeouts, Retry-After-honoring backoff and an\n\
     idempotent --job key, and prints the server's reply as JSON.\n\
     exit codes: 0 ok, 1 violation/refuted/unknown, 2 usage, 3 internal."
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn parse_allow(spec: &str, arity: usize) -> Result<IndexSet, String> {
    if spec.trim().is_empty() {
        return Ok(IndexSet::empty());
    }
    let mut set = IndexSet::empty();
    for part in spec.split(',') {
        let i: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad index `{part}` in --allow"))?;
        if i == 0 || i > arity {
            return Err(format!("--allow index {i} outside 1..={arity}"));
        }
        set.insert(i);
    }
    Ok(set)
}

fn parse_input(spec: &str, arity: usize) -> Result<Vec<V>, String> {
    let vals: Result<Vec<V>, _> = if spec.trim().is_empty() {
        Ok(Vec::new())
    } else {
        spec.split(',').map(|p| p.trim().parse::<V>()).collect()
    };
    let vals = vals.map_err(|e| format!("bad --input: {e}"))?;
    if vals.len() != arity {
        return Err(format!(
            "--input has {} values but the program takes {arity}",
            vals.len()
        ));
    }
    Ok(vals)
}

/// A CLI failure, carrying its exit-code class.
///
/// Violations and refuted verdicts are *not* errors — those commands print
/// their report on stdout and exit 1 via the `Ok((out, 1))` path.
enum CliError {
    /// Bad flags, unparsable program, unreadable file — exit 2.
    Usage(String),
    /// The toolkit itself failed (panicking subject, corrupt or
    /// incompatible checkpoint) — exit 3.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Internal(_) => 3,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Internal(m) => f.write_str(m),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<EnfError> for CliError {
    fn from(e: EnfError) -> Self {
        CliError::Internal(e.to_string())
    }
}

impl From<PolicyError> for CliError {
    fn from(e: PolicyError) -> Self {
        match e {
            PolicyError::Usage(m) => CliError::Usage(m),
            PolicyError::Engine(e) => CliError::Internal(e.to_string()),
        }
    }
}

/// Exit code for runs that completed and printed a report: `0` when the
/// outcome is acceptable, `1` for violations and refuted/unknown verdicts.
const EXIT_OK: u8 = 0;
const EXIT_VIOLATION: u8 = 1;

fn main() -> ExitCode {
    match run_cli(std::env::args().skip(1).collect()) {
        Ok((out, code)) => {
            print!("{out}");
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("enforce: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// The flags each command takes: those its usage text gives. Any other
/// flag is a usage error, so a misspelt or misplaced flag cannot be
/// silently ignored. `None` for an unknown command.
fn flags_of(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "run" => "input fuel",
        "surveil" => "allow input timed highwater fuel audit",
        "trace" => "input allow json timed highwater engine fuel",
        "check" => {
            "allow span timed highwater threads engine deadline budget checkpoint resume \
             block schedules fuel audit"
        }
        "compile" => "dump",
        "certify" => "allow scoped value relational dynamic lattice clearance audit",
        "refute" => "allow span threads fuel json deadline budget",
        "lint" => "allow json lattice clearance",
        "explain" => "allow input timed highwater fuel",
        "improve" => "allow span rounds",
        "instrument" => "allow timed highwater dot",
        "dot" => "taint scoped input allow timed highwater fuel",
        "audit" => "json",
        "serve" => "listen unix workers queue quota state cache fuel retry-after chaos",
        "client" => {
            "addr tenant job allow input span deadline-ms budget block fuel attempts \
             timeout-ms chaos-kill"
        }
        _ => return None,
    })
}

fn run_cli(argv: Vec<String>) -> Result<(String, u8), CliError> {
    let args = Args::parse(argv);
    if let Some((cmd, takes)) = args
        .positional
        .first()
        .and_then(|c| Some((c, flags_of(c)?)))
    {
        let takes = |name: &String| takes.split_whitespace().any(|f| f == name);
        if let Some((name, _)) = args.flags.iter().find(|(name, _)| !takes(name)) {
            return Err(format!("{cmd} does not take --{name}").into());
        }
    }
    let (cmd, path) = match args.positional.as_slice() {
        [cmd, sub, path] if cmd == "audit" && sub == "verify" => {
            return audit_verify(path, &args);
        }
        [cmd, ..] if cmd == "audit" => {
            return Err("usage: enforce audit verify <log.jsonl> [--json]"
                .to_string()
                .into());
        }
        [cmd] if cmd == "serve" => return cmd_serve(&args),
        [cmd, ..] if cmd == "serve" => {
            return Err("serve takes no positional arguments".to_string().into());
        }
        [cmd, ..] if cmd == "client" => return cmd_client(&args),
        [cmd, path] => (cmd, path),
        _ => return Err(format!("expected a command and a file\n{}", usage()).into()),
    };
    let src = read_source(path)?;
    let fc = parse(&src).map_err(|e| e.to_string())?;
    let arity = fc.arity();
    let fuel: u64 = match args.flag("fuel") {
        Some(Some(v)) => v.parse().map_err(|_| "bad --fuel".to_string())?,
        _ => 1_000_000,
    };
    let mut out = String::new();
    let mut code = EXIT_OK;
    use std::fmt::Write as _;
    match cmd.as_str() {
        "run" => {
            let input = parse_input(args.value("input")?, arity)?;
            let p = FlowchartProgram::with_fuel(fc, fuel);
            let t = p.eval_timed(&input);
            let _ = writeln!(out, "y = {} ({} steps)", t.value, t.steps);
        }
        "surveil" => {
            // Dogfood of the typed pipeline: input enters tainted, the
            // monitor attests or refuses, the accepted value is released
            // through a capability-gated sink, and every step lands in
            // the audit log (in-memory unless --audit names a file).
            let allow = parse_allow(args.value("allow")?, arity)?;
            let input = Tainted::new(parse_input(args.value("input")?, arity)?);
            let enforcer = Enforcer::new(fc, allow)
                .map_err(CliError::from)?
                .with_discipline(parse_discipline(&args))
                .with_fuel(fuel);
            let mut log = open_audit(&args)?;
            let cap = Capability::issue("stdout", &mut log)?;
            match enforcer.surveil(input, &mut log).map_err(CliError::from)? {
                RunVerdict::Released(v) => {
                    let steps = v.evidence().steps().unwrap_or_default();
                    let y = Sink::new(cap, &mut log).release(v)?;
                    let _ = writeln!(out, "accepted: y = {y} ({steps} steps)");
                }
                RunVerdict::Refused(Refusal::Violation {
                    site,
                    taint,
                    disallowed,
                    steps,
                }) => {
                    let _ = writeln!(
                        out,
                        "violation at {site} after {steps} steps: taint {taint}, disallowed {disallowed}"
                    );
                    code = EXIT_VIOLATION;
                }
                RunVerdict::Refused(Refusal::OutOfFuel { fuel }) => {
                    let _ = writeln!(out, "out of fuel after {fuel} steps");
                    code = EXIT_VIOLATION;
                }
            }
        }
        "trace" => {
            let allow = parse_allow_or_full(&args, arity)?;
            let input = parse_input(args.value("input")?, arity)?;
            let cfg = base_config(&args, allow).with_fuel(fuel);
            use enforcement::surveillance::dynamic::SurvOutcome;
            use enforcement::surveillance::monitor::{run_trace, TraceKind};
            use enforcement::surveillance::run_trace_vm;
            let (verdict, events) = match parse_engine(&args)? {
                Engine::Ast => run_trace(&fc, &input, &cfg),
                Engine::Vm => run_trace_vm(&Compiled::new(&fc), &input, &cfg),
            };
            if args.has("json") {
                for e in &events {
                    let _ = writeln!(out, "{}", e.to_json_line());
                }
                let line = match &verdict {
                    SurvOutcome::Accepted { y, steps } => {
                        format!("{{\"verdict\": \"accepted\", \"y\": {y}, \"steps\": {steps}}}")
                    }
                    SurvOutcome::Violation { site, taint, steps } => format!(
                        "{{\"verdict\": \"violation\", \"site\": {}, \"steps\": {steps}, \
                         \"taint\": {}, \"disallowed\": {}}}",
                        site.0,
                        json_set(taint),
                        json_set(&taint.difference(&allow))
                    ),
                    SurvOutcome::OutOfFuel => {
                        format!("{{\"verdict\": \"out_of_fuel\", \"steps\": {fuel}}}")
                    }
                };
                let _ = writeln!(out, "{line}");
            } else {
                for e in &events {
                    let _ = match &e.kind {
                        TraceKind::Start => {
                            writeln!(out, "step {:>3} at {}: START", e.step, e.node)
                        }
                        TraceKind::Assign { before, after, .. } => writeln!(
                            out,
                            "step {:>3} at {}: {} [{before} -> {after}]  pc {}",
                            e.step, e.node, e.what, e.pc
                        ),
                        TraceKind::Branch {
                            taken,
                            before,
                            after,
                        } => writeln!(
                            out,
                            "step {:>3} at {}: {} [{before} -> {after}]  {}",
                            e.step,
                            e.node,
                            e.what,
                            match taken {
                                Some(true) => "(then)",
                                Some(false) => "(else)",
                                None => "(vetoed)",
                            }
                        ),
                        TraceKind::SetPolicy { active } => writeln!(
                            out,
                            "step {:>3} at {}: {}  now allowing {}",
                            e.step,
                            e.node,
                            e.what,
                            match active {
                                Some(s) => format!("{s}"),
                                None => "(schedule slot)".to_string(),
                            }
                        ),
                        TraceKind::Declassify { before, after, .. } => writeln!(
                            out,
                            "step {:>3} at {}: {} [{before} -> {after}]  pc {}",
                            e.step, e.node, e.what, e.pc
                        ),
                        TraceKind::Halt { released } => writeln!(
                            out,
                            "step {:>3} at {}: HALT  releases {released}",
                            e.step, e.node
                        ),
                    };
                }
                match &verdict {
                    SurvOutcome::Accepted { y, steps } => {
                        let _ = writeln!(out, "accepted: y = {y} ({steps} steps)");
                    }
                    SurvOutcome::Violation { site, taint, steps } => {
                        let _ = writeln!(
                            out,
                            "violation at {site} after {steps} steps: taint {taint}, disallowed {}",
                            taint.difference(&allow)
                        );
                    }
                    SurvOutcome::OutOfFuel => {
                        let _ = writeln!(out, "out of fuel after {fuel} steps");
                    }
                }
            }
        }
        "check" => {
            let allow = parse_allow(args.value("allow")?, arity)?;
            let span: i64 = args
                .value("span")?
                .parse()
                .map_err(|_| "bad --span".to_string())?;
            // Worker count: --threads beats ENF_THREADS beats the core
            // count; see enf_core::par::EvalConfig.
            let eval = match args.flag("threads") {
                Some(Some(v)) => {
                    let n: usize = v.parse().map_err(|_| "bad --threads".to_string())?;
                    EvalConfig::with_threads(n)
                }
                Some(None) => return Err("--threads needs a value".to_string().into()),
                None => EvalConfig::default(),
            };
            let ctl = build_cancel_token(&args)?;
            install_sigint(&ctl);
            let mut log = open_audit(&args)?;
            if args.has("schedules") {
                // Scheduled oracle: quantify over every bounded policy
                // schedule (capped at K) instead of the fixed policy.
                let cap: usize = args
                    .value("schedules")?
                    .parse()
                    .ok()
                    .filter(|k: &usize| *k > 0)
                    .ok_or_else(|| "bad --schedules (need a positive schedule cap)".to_string())?;
                if args.has("timed")
                    || args.has("highwater")
                    || args.has("checkpoint")
                    || args.has("resume")
                    || args.has("engine")
                {
                    return Err("--schedules runs the scheduled oracle on the stepper; it \
                                cannot be combined with --timed, --highwater, --engine, \
                                --checkpoint or --resume"
                        .to_string()
                        .into());
                }
                let enforcer = Enforcer::new(fc, allow)
                    .map_err(CliError::from)?
                    .with_fuel(fuel);
                match enforcer
                    .sweep_scheduled(span, &eval, Some(cap), &ctl, &mut log)
                    .map_err(CliError::from)?
                {
                    ScheduledOutcome::Sound { schedules, inputs } => {
                        let _ = writeln!(
                            out,
                            "sound over {inputs} inputs under {schedules} schedule{}",
                            if schedules == 1 { "" } else { "s" }
                        );
                    }
                    ScheduledOutcome::Unsound {
                        witness: w,
                        validated,
                    } => {
                        let _ = writeln!(
                            out,
                            "UNSOUND under schedule #{} ({})",
                            w.schedule_index, w.schedule
                        );
                        let _ = writeln!(out, "  run a: {:?} -> {}", w.a, w.out_a);
                        let _ = writeln!(out, "  run b: {:?} -> {}", w.b, w.out_b);
                        let _ = writeln!(
                            out,
                            "  final policy allow({}); witness replay {}",
                            w.final_policy,
                            if validated { "validated" } else { "FAILED" }
                        );
                        code = EXIT_VIOLATION;
                    }
                    ScheduledOutcome::Unknown { checked, total } => {
                        let _ = writeln!(
                            out,
                            "unknown: {checked} of {total} schedules checked before the sweep \
                             was cut short"
                        );
                        code = EXIT_VIOLATION;
                    }
                }
                return Ok((out, code));
            }
            let checkpoint_path = args.flag("checkpoint").cloned().flatten();
            let resume_path = args.flag("resume").cloned().flatten();
            if (args.has("checkpoint") && checkpoint_path.is_none())
                || (args.has("resume") && resume_path.is_none())
            {
                return Err("--checkpoint/--resume need a file path".to_string().into());
            }
            if args.has("timed") && args.has("engine") {
                return Err("--timed sweeps run on the flowchart stepper (the timed \
                            mechanism observes step counts); drop --engine"
                    .to_string()
                    .into());
            }
            let enforcer = Enforcer::new(fc, allow)
                .map_err(CliError::from)?
                .with_discipline(parse_discipline(&args))
                .with_engine(parse_engine(&args)?)
                .with_fuel(fuel);
            let outcome = if checkpoint_path.is_some() || resume_path.is_some() {
                if args.has("timed") {
                    return Err(
                        "--timed checks cannot be checkpointed (their output shape has no codec); \
                         drop --checkpoint/--resume or --timed"
                            .to_string()
                            .into(),
                    );
                }
                let block: usize = match args.flag("block") {
                    Some(Some(v)) => v
                        .parse()
                        .ok()
                        .filter(|b| *b > 0)
                        .ok_or_else(|| "bad --block (need a positive count)".to_string())?,
                    Some(None) => return Err("--block needs a value".to_string().into()),
                    None => 4096,
                };
                // The fingerprint salt ties a checkpoint to this exact
                // sweep: program text, policy, grid, fuel, and variant.
                let salt = check_salt(&src, allow, span, fuel, args.has("highwater"));
                enforcer
                    .sweep_checkpointed(
                        span,
                        &eval,
                        &ctl,
                        salt,
                        block,
                        resume_path.as_deref().map(std::path::Path::new),
                        checkpoint_path.as_deref().map(std::path::Path::new),
                        &mut log,
                    )
                    .map_err(CliError::from)?
            } else {
                enforcer
                    .sweep(span, &eval, &ctl, &mut log)
                    .map_err(CliError::from)?
            };
            let _ = match outcome.verdict() {
                Verdict::Confirmed => writeln!(out, "sound over {} inputs", outcome.total()),
                Verdict::Refuted => writeln!(
                    out,
                    "UNSOUND over {} inputs (conflict within the first {} checked)",
                    outcome.total(),
                    outcome.checked()
                ),
                Verdict::Unknown => writeln!(
                    out,
                    "unknown: {} of {} inputs checked before the sweep was cut short",
                    outcome.checked(),
                    outcome.total()
                ),
            };
            if outcome.verdict() != Verdict::Confirmed {
                code = EXIT_VIOLATION;
            }
        }
        "compile" => {
            let compiled = Compiled::new(&fc);
            if args.has("dump") {
                out.push_str(&compiled.listing());
            } else {
                let listing = compiled.listing();
                let summary = listing.lines().next().unwrap_or_default();
                let _ = writeln!(out, "{summary}");
            }
        }
        "certify" => {
            let exclusive = [
                args.has("scoped"),
                args.has("value"),
                args.has("relational"),
                args.has("dynamic"),
                args.has("lattice"),
            ];
            if exclusive.iter().filter(|b| **b).count() > 1 {
                return Err(
                    "--scoped, --value, --relational, --dynamic and --lattice are exclusive"
                        .to_string()
                        .into(),
                );
            }
            let mut log = open_audit(&args)?;
            let enforcer;
            let outcome = if args.has("lattice") {
                // The lattice path reads the policy from the program's
                // labels section, not from --allow.
                use enforcement::core::label::Level;
                let clearance = match args.flag("clearance") {
                    Some(Some(v)) => Level::parse_name(v).ok_or_else(|| {
                        format!(
                            "unknown clearance `{v}` \
                             (want unclassified|confidential|secret|topsecret)"
                        )
                    })?,
                    Some(None) => return Err("--clearance needs a value".to_string().into()),
                    None => Level::Unclassified,
                };
                let lp = enforcement::flowchart::parse_labeled(&src).map_err(|e| e.to_string())?;
                enforcer = Enforcer::new_lattice(lp, clearance).map_err(CliError::from)?;
                enforcer.certify_lattice(&mut log).map_err(CliError::from)?
            } else {
                let allow = parse_allow(args.value("allow")?, arity)?;
                let analysis = match exclusive {
                    [true, ..] => Analysis::Scoped,
                    [_, true, ..] => Analysis::ValueRefined,
                    [_, _, true, ..] => Analysis::Relational,
                    [_, _, _, true, _] => Analysis::DynamicPolicy,
                    _ => Analysis::Surveillance,
                };
                enforcer = Enforcer::new(fc, allow).map_err(CliError::from)?;
                enforcer
                    .certify(analysis, &mut log)
                    .map_err(CliError::from)?
            };
            let _ = writeln!(out, "{:?}", outcome.certification());
            if !outcome.is_certified() {
                code = EXIT_VIOLATION;
            }
        }
        "refute" => {
            let allow = parse_allow(args.value("allow")?, arity)?;
            let span: i64 = match args.flag("span") {
                Some(Some(v)) => v.parse().map_err(|_| "bad --span".to_string())?,
                Some(None) => return Err("--span needs a value".to_string().into()),
                None => 3,
            };
            let eval = match args.flag("threads") {
                Some(Some(v)) => {
                    let n: usize = v.parse().map_err(|_| "bad --threads".to_string())?;
                    EvalConfig::with_threads(n)
                }
                Some(None) => return Err("--threads needs a value".to_string().into()),
                None => EvalConfig::default(),
            };
            use enforcement::flowchart::interp::ExecValue;
            use enforcement::staticflow::refute::{verify, RelationalVerdict};
            let grid = sweep_grid(arity, span).map_err(CliError::from)?;
            if fc.has_policy_nodes() {
                // Dynamic-policy programs: the relational analysis cannot
                // model policy boxes, so refutation runs the policy-schedule
                // certifier and, on rejection, searches for a replay-
                // validated scheduled witness (input pair + schedule).
                if args.has("deadline") || args.has("budget") {
                    return Err("refute of a program with policy boxes runs the scheduled \
                                oracle, which takes no --deadline or --budget"
                        .to_string()
                        .into());
                }
                use enforcement::staticflow::Certification;
                let cert = certify(&fc, allow, Analysis::DynamicPolicy);
                let suspect = match &cert {
                    Certification::Certified => None,
                    Certification::Rejected { taint } => Some(*taint),
                };
                let witness = match suspect {
                    None => None,
                    Some(_) => {
                        let program = FlowchartProgram::with_fuel(fc.clone(), fuel);
                        let policy = Allow::from_set(arity, allow);
                        check_soundness_scheduled(&program, &policy, &grid, &eval, None)
                            .witness()
                            .filter(|w| validate_scheduled_witness(&program, *w))
                            .cloned()
                    }
                };
                let tag = match (&suspect, &witness) {
                    (None, _) => "certified",
                    (Some(_), Some(_)) => "leak",
                    (Some(_), None) => "unknown",
                };
                if args.has("json") {
                    let _ = writeln!(out, "{{");
                    let _ = writeln!(out, "  \"verdict\": \"{tag}\",");
                    let _ = write!(out, "  \"initial\": {}", json_set(&allow));
                    if let Some(w) = &witness {
                        let slots: Vec<String> = w.schedule.slots.iter().map(json_set).collect();
                        let _ = write!(
                            out,
                            ",\n  \"witness\": {{\"schedule_index\": {}, \
                             \"schedule\": {{\"initial\": {}, \"slots\": [{}]}}, \
                             \"final_policy\": {}, \"a\": {:?}, \"b\": {:?}, \
                             \"out_a\": {}, \"out_b\": {}, \"validated\": true}}",
                            w.schedule_index,
                            json_set(&w.schedule.initial),
                            slots.join(", "),
                            json_set(&w.final_policy),
                            w.a,
                            w.b,
                            json_exec(&w.out_a),
                            json_exec(&w.out_b)
                        );
                    } else if let Some(taint) = suspect {
                        let _ = write!(out, ",\n  \"taint\": {}", json_set(&taint));
                    }
                    let _ = writeln!(out, "\n}}");
                } else {
                    match (&suspect, &witness) {
                        (None, _) => {
                            let _ = writeln!(
                                out,
                                "certified: the policy-schedule analysis proves soundness \
                                 under every schedule from allow({allow})"
                            );
                        }
                        (Some(_), Some(w)) => {
                            let _ = writeln!(
                                out,
                                "leak under schedule #{} ({}): inputs agreeing on the final \
                                 policy's view release different outcomes",
                                w.schedule_index, w.schedule
                            );
                            let _ = writeln!(out, "  run a: {:?} -> {}", w.a, w.out_a);
                            let _ = writeln!(out, "  run b: {:?} -> {}", w.b, w.out_b);
                            let _ = writeln!(
                                out,
                                "  final policy allow({}); witness replay validated",
                                w.final_policy
                            );
                        }
                        (Some(taint), None) => {
                            let _ = writeln!(
                                out,
                                "unknown: rejected statically (suspect taint {taint}) but no \
                                 scheduled witness on [-{span}, {span}]^{arity}"
                            );
                        }
                    }
                }
                if tag != "certified" {
                    code = EXIT_VIOLATION;
                }
                return Ok((out, code));
            }
            let ctl = build_cancel_token(&args)?;
            install_sigint(&ctl);
            let verdict = verify(&fc, allow, &grid, fuel, &eval, &ctl)?;
            let json_out = |v: &ExecValue| match v {
                ExecValue::Value(n) => n.to_string(),
                ExecValue::Diverged => "null".to_string(),
            };
            if args.has("json") {
                let _ = writeln!(out, "{{");
                let _ = writeln!(out, "  \"verdict\": \"{}\",", verdict.tag());
                let _ = write!(out, "  \"allowed\": {}", json_set(&allow));
                match &verdict {
                    RelationalVerdict::Certified => {}
                    RelationalVerdict::Leak { witness } => {
                        let _ = write!(
                            out,
                            ",\n  \"witness\": {{\"a\": {:?}, \"b\": {:?}, \
                             \"out_a\": {}, \"out_b\": {}}}",
                            witness.a,
                            witness.b,
                            json_out(&witness.out_a),
                            json_out(&witness.out_b)
                        );
                    }
                    RelationalVerdict::Unknown {
                        taint,
                        checked,
                        total,
                    } => {
                        let _ = write!(out, ",\n  \"taint\": {}", json_set(taint));
                        if checked < total {
                            let _ =
                                write!(out, ",\n  \"checked\": {checked},\n  \"total\": {total}");
                        }
                    }
                }
                let _ = writeln!(out, "\n}}");
            } else {
                match &verdict {
                    RelationalVerdict::Certified => {
                        let _ = writeln!(
                            out,
                            "certified: the relational analysis proves noninterference for allow({allow})"
                        );
                    }
                    RelationalVerdict::Leak { witness } => {
                        let _ = writeln!(
                            out,
                            "leak: inputs agreeing on allow({allow}) release different outcomes"
                        );
                        let _ = writeln!(out, "  run a: {:?} -> {}", witness.a, witness.out_a);
                        let _ = writeln!(out, "  run b: {:?} -> {}", witness.b, witness.out_b);
                    }
                    RelationalVerdict::Unknown {
                        taint,
                        checked,
                        total,
                    } if checked < total => {
                        let _ = writeln!(
                            out,
                            "unknown: rejected statically (suspect taint {taint}) and no \
                             witness pair in the {checked} of {total} inputs checked before \
                             the sweep was cut short"
                        );
                    }
                    RelationalVerdict::Unknown { taint, .. } => {
                        let _ = writeln!(
                            out,
                            "unknown: rejected statically (suspect taint {taint}) but no \
                             witness pair on [-{span}, {span}]^{arity}"
                        );
                    }
                }
            }
            if !matches!(verdict, RelationalVerdict::Certified) {
                code = EXIT_VIOLATION;
            }
        }
        "lint" => {
            let report = if args.has("lattice") {
                use enforcement::core::label::Level;
                let clearance = match args.flag("clearance") {
                    Some(Some(v)) => Level::parse_name(v).ok_or_else(|| {
                        format!(
                            "unknown clearance `{v}` \
                             (want unclassified|confidential|secret|topsecret)"
                        )
                    })?,
                    Some(None) => return Err("--clearance needs a value".to_string().into()),
                    None => Level::Unclassified,
                };
                let lp = enforcement::flowchart::parse_labeled(&src).map_err(|e| e.to_string())?;
                enforcement::staticflow::lint::lint_labeled(
                    &lp.flowchart,
                    &lp.classification,
                    &lp.flow,
                    &clearance,
                )
            } else {
                let allow = parse_allow(args.value("allow")?, arity)?;
                enforcement::staticflow::lint::lint(&fc, &allow)
            };
            if args.has("json") {
                out.push_str(&report.to_json());
            } else {
                out.push_str(&report.render());
            }
        }
        "explain" => {
            let allow = parse_allow(args.value("allow")?, arity)?;
            let input = parse_input(args.value("input")?, arity)?;
            let cfg = base_config(&args, allow).with_fuel(fuel);
            let e = explain(&fc, &input, &cfg);
            out.push_str(&e.render());
        }
        "improve" => {
            let allow = parse_allow(args.value("allow")?, arity)?;
            let span: i64 = args
                .value("span")?
                .parse()
                .map_err(|_| "bad --span".to_string())?;
            let rounds: usize = match args.flag("rounds") {
                Some(Some(v)) => v.parse().map_err(|_| "bad --rounds".to_string())?,
                _ => 6,
            };
            let sp =
                enforcement::flowchart::restructure::restructure(&fc).map_err(|e| e.to_string())?;
            let grid = sweep_grid(arity, span).map_err(CliError::from)?;
            let r = improve(&sp, allow, &grid, rounds);
            let _ = writeln!(
                out,
                "acceptance {} -> {} of {} (transforms: {})",
                r.accepted_before,
                r.accepted_after,
                r.total,
                if r.steps.is_empty() {
                    "none".to_string()
                } else {
                    r.steps
                        .iter()
                        .map(|s| s.transform)
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            );
            out.push_str(&enforcement::flowchart::pretty::structured_to_string(
                &r.best,
            ));
        }
        "instrument" => {
            let allow = parse_allow(args.value("allow")?, arity)?;
            instrumentable(&fc).map_err(CliError::Usage)?;
            let inst = instrument_with(&fc, allow, args.has("timed"), args.has("highwater"));
            if args.has("dot") {
                out.push_str(&to_dot(inst.flowchart(), "mechanism"));
            } else {
                out.push_str(&flowchart_to_string(inst.flowchart()));
            }
        }
        "dot" => {
            if args.has("taint") && args.has("input") {
                // Dynamic decoration: annotate each node with the taints the
                // trace stream last observed there — the same stream behind
                // `enforce trace` and `explain`.
                use enforcement::surveillance::monitor::{run_trace, TraceKind};
                let allow = parse_allow_or_full(&args, arity)?;
                let input = parse_input(args.value("input")?, arity)?;
                let cfg = base_config(&args, allow).with_fuel(fuel);
                let (_, events) = run_trace(&fc, &input, &cfg);
                let n = fc.iter().count();
                let mut annotation: Vec<Option<String>> = vec![None; n];
                let mut visited = vec![false; n];
                for e in &events {
                    visited[e.node.0] = true;
                    annotation[e.node.0] = match &e.kind {
                        TraceKind::Start => None,
                        TraceKind::Assign { before, after, .. } => {
                            Some(format!("{before} -> {after}  pc {}", e.pc))
                        }
                        TraceKind::Branch { before, after, .. } => {
                            Some(format!("pc {before} -> {after}"))
                        }
                        TraceKind::SetPolicy { active } => Some(match active {
                            Some(s) => format!("now allowing {s}"),
                            None => "schedule slot".to_string(),
                        }),
                        TraceKind::Declassify { before, after, .. } => {
                            Some(format!("{before} -> {after}"))
                        }
                        TraceKind::Halt { released } => Some(format!("releases {released}")),
                    };
                }
                let decor: Vec<NodeDecor> = annotation
                    .into_iter()
                    .zip(visited)
                    .map(|(annotation, visited)| NodeDecor {
                        annotation,
                        dimmed: !visited,
                    })
                    .collect();
                out.push_str(&to_dot_decorated(&fc, "program", &decor));
            } else if args.has("taint") {
                use enforcement::flowchart::ast::Var;
                use enforcement::flowchart::graph::Node;
                use enforcement::staticflow::{analyze, analyze_refined, analyze_values};
                let values = analyze_values(&fc);
                let facts = if args.has("scoped") {
                    analyze(&fc, PcDiscipline::Scoped)
                } else {
                    analyze_refined(&fc, &values)
                };
                let decor: Vec<NodeDecor> = fc
                    .iter()
                    .map(|(id, node, _)| {
                        let dimmed = !values.reachable(id);
                        let annotation = match node {
                            Node::Start => None,
                            Node::Halt if dimmed => None,
                            Node::Halt => Some(format!("releases {}", facts.halt_taint(id))),
                            _ if dimmed => None,
                            _ => Some(format!(
                                "pc {} y {}",
                                facts.pc_at(id),
                                facts.at_entry[id.0].get(Var::Out)
                            )),
                        };
                        NodeDecor { annotation, dimmed }
                    })
                    .collect();
                out.push_str(&to_dot_decorated(&fc, "program", &decor));
            } else {
                out.push_str(&to_dot(&fc, "program"));
            }
        }
        other => {
            return Err(format!("unknown command `{other}`\n{}", usage()).into());
        }
    }
    Ok((out, code))
}

/// `--engine` picks the executor for the dynamic disciplines: the
/// flowchart stepper (`ast`) or the register-bytecode VM (`vm`, the
/// default). The engines are differentially pinned bit-identical, so the
/// choice only affects speed.
fn parse_engine(args: &Args) -> Result<Engine, String> {
    match args.flag("engine") {
        None => Ok(Engine::Vm),
        Some(Some(v)) => match v.as_str() {
            "ast" => Ok(Engine::Ast),
            "vm" => Ok(Engine::Vm),
            other => Err(format!("bad --engine `{other}` (expected ast or vm)")),
        },
        Some(None) => Err("--engine needs a value (ast or vm)".to_string()),
    }
}

/// `--timed` / `--highwater` pick the enforcement discipline; plain
/// surveillance is the default.
fn parse_discipline(args: &Args) -> Discipline {
    if args.has("timed") {
        Discipline::Timed
    } else if args.has("highwater") {
        Discipline::HighWater
    } else {
        Discipline::Surveillance
    }
}

/// `--audit FILE` appends the run's audit records to a hash-chained
/// JSONL file (created if absent, chain-verified if present); without
/// the flag the trail stays in memory for the duration of the run.
fn open_audit(args: &Args) -> Result<AuditLog, CliError> {
    match args.flag("audit") {
        None => Ok(AuditLog::in_memory()),
        Some(Some(p)) => AuditLog::resume(std::path::Path::new(p), FlushPolicy::EveryRecord)
            .map_err(|e| CliError::Internal(format!("cannot open audit log `{p}`: {e}"))),
        Some(None) => Err("--audit needs a file path".to_string().into()),
    }
}

/// `enforce audit verify <log.jsonl>`: re-derives the hash chain and
/// reports the first tampered record, if any. Exit 0 intact, 1 tampered.
fn audit_verify(path: &str, args: &Args) -> Result<(String, u8), CliError> {
    use std::fmt::Write as _;
    let text = read_source(path)?;
    let verdict = verify_chain(&text);
    let mut out = String::new();
    let code = match &verdict {
        ChainVerdict::Intact { records, head } => {
            if args.has("json") {
                let _ = writeln!(
                    out,
                    "{{\"verdict\": \"intact\", \"records\": {records}, \"head\": \"{}\"}}",
                    hash_hex(*head)
                );
            } else {
                let _ = writeln!(out, "intact: {records} records, head {}", hash_hex(*head));
            }
            0
        }
        ChainVerdict::Tampered {
            intact,
            line,
            reason,
        } => {
            if args.has("json") {
                let _ = writeln!(
                    out,
                    "{{\"verdict\": \"tampered\", \"line\": {line}, \"reason\": {}, \
                     \"intact_prefix\": {intact}}}",
                    enforcement::core::Json::Str(reason.clone()).render()
                );
            } else {
                let _ = writeln!(out, "TAMPERED at record {line}: {reason}");
                let _ = writeln!(out, "  intact prefix: {intact} records");
            }
            EXIT_VIOLATION
        }
    };
    Ok((out, code))
}

/// Parses an optional numeric flag, leaving `current` untouched when the
/// flag is absent.
fn num_flag<T: std::str::FromStr>(args: &Args, name: &str, current: T) -> Result<T, CliError> {
    match args.flag(name) {
        Some(Some(v)) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --{name} `{v}`"))),
        Some(None) => Err(CliError::Usage(format!("--{name} needs a value"))),
        None => Ok(current),
    }
}

/// `enforce serve`: the enforcement service in the foreground.
///
/// Prints the bound address on the first line (so scripts and tests can
/// connect to `--listen 127.0.0.1:0`), serves until SIGTERM/SIGINT, then
/// drains and prints the stats report as JSON. Exit 0 for a clean life,
/// 1 for a degraded one — the service's own soundness verdict on itself.
fn cmd_serve(args: &Args) -> Result<(String, u8), CliError> {
    use enforcement::serve::{serve, Listener, ServerConfig};
    use std::io::Write as _;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let mut cfg = ServerConfig::default();
    cfg.workers = num_flag(args, "workers", cfg.workers)?;
    cfg.queue = num_flag(args, "queue", cfg.queue)?;
    cfg.tenant_quota = num_flag(args, "quota", cfg.tenant_quota)?;
    cfg.cache_capacity = num_flag(args, "cache", cfg.cache_capacity)?;
    cfg.default_fuel = num_flag(args, "fuel", cfg.default_fuel)?;
    cfg.retry_after_ms = num_flag(args, "retry-after", cfg.retry_after_ms)?;
    cfg.chaos = args.has("chaos");
    if let Some(v) = args.flag("state") {
        let dir = v
            .as_deref()
            .ok_or_else(|| CliError::Usage("--state needs a directory".to_string()))?;
        cfg.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if cfg.workers == 0 || cfg.queue == 0 {
        return Err(CliError::Usage(
            "--workers and --queue must be at least 1".to_string(),
        ));
    }

    let listener = match (args.flag("unix"), args.flag("listen")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--listen and --unix are exclusive".to_string(),
            ))
        }
        (Some(Some(path)), None) => Listener::bind_unix(path)
            .map_err(|e| CliError::Internal(format!("binding {path}: {e}")))?,
        (Some(None), None) => {
            return Err(CliError::Usage("--unix needs a path".to_string()));
        }
        (None, spec) => {
            let addr = match spec {
                Some(Some(a)) => a.as_str(),
                Some(None) => return Err(CliError::Usage("--listen needs host:port".to_string())),
                None => "127.0.0.1:0",
            };
            Listener::bind_tcp(addr)
                .map_err(|e| CliError::Internal(format!("binding {addr}: {e}")))?
        }
    };

    // The bound address goes out *before* the blocking serve loop, so a
    // caller that asked for port 0 can discover where we actually live.
    println!(
        "enforce-serve listening on {}",
        listener.local_addr_string()
    );
    let _ = std::io::stdout().flush();

    let shutdown = Arc::new(AtomicBool::new(false));
    install_shutdown_signals(&shutdown);
    let stats = serve(listener, cfg, shutdown);

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", stats.to_json().render());
    Ok((out, if stats.degraded() { 1 } else { 0 }))
}

/// Wires SIGTERM and SIGINT to the server's shutdown flag: either signal
/// starts a graceful drain.
fn install_shutdown_signals(flag: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static SHUTDOWN_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        if let Some(flag) = SHUTDOWN_FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }
    if SHUTDOWN_FLAG.set(Arc::clone(flag)).is_ok() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: installs a handler that performs a single atomic store.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// `enforce client`: send one job to a running server and print its reply.
///
/// The exit code mirrors the local commands: 0 for released / certified /
/// confirmed (and pong), 1 for refused / rejected / refuted / unknown,
/// 2 for usage rejections, 3 for transport exhaustion and server faults.
fn cmd_client(args: &Args) -> Result<(String, u8), CliError> {
    use enforcement::serve::{reply_is_ok, Client, ClientConfig, Op, Request};

    let op_str = args.positional.get(1).ok_or_else(|| {
        CliError::Usage("client needs an op (ping|surveil|certify|check|refute)".to_string())
    })?;
    let op = match op_str.as_str() {
        "ping" => Op::Ping,
        "surveil" => Op::Surveil,
        "certify" => Op::Certify,
        "check" => Op::Check,
        "refute" => Op::Refute,
        other => {
            return Err(CliError::Usage(format!(
                "unknown client op `{other}` (want ping|surveil|certify|check|refute)"
            )))
        }
    };
    let program = match args.positional.get(2) {
        Some(path) => read_source(path)?,
        None if op == Op::Ping => String::new(),
        None => {
            return Err(CliError::Usage(format!(
                "client {op_str} needs a program file (or `-` for stdin)"
            )))
        }
    };
    let addr = args.value("addr")?;

    let allow = enforcement::serve::parse_allow(
        args.flag("allow").and_then(|v| v.as_deref()).unwrap_or(""),
    )
    .map_err(CliError::Usage)?;
    let input: Vec<V> = match args.flag("input") {
        Some(Some(spec)) if !spec.trim().is_empty() => spec
            .split(',')
            .map(|p| p.trim().parse::<V>())
            .collect::<Result<_, _>>()
            .map_err(|e| CliError::Usage(format!("bad --input: {e}")))?,
        Some(None) => return Err(CliError::Usage("--input needs a value".to_string())),
        _ => Vec::new(),
    };
    let req = Request {
        op,
        tenant: args
            .flag("tenant")
            .and_then(|v| v.as_deref())
            .unwrap_or("default")
            .to_string(),
        job: args
            .flag("job")
            .and_then(|v| v.as_deref())
            .unwrap_or("")
            .to_string(),
        program,
        allow,
        input,
        span: num_flag(args, "span", 3)?,
        deadline_ms: match args.flag("deadline-ms") {
            Some(_) => Some(num_flag(args, "deadline-ms", 0u64)?),
            None => None,
        },
        budget: match args.flag("budget") {
            Some(_) => Some(num_flag(args, "budget", 0usize)?),
            None => None,
        },
        block: num_flag(args, "block", 4096usize)?,
        fuel: num_flag(args, "fuel", 0u64)?,
        // Debug facility for fault drills: servers ignore the directive
        // unless launched with --chaos.
        chaos: args.has("chaos-kill").then(|| "panic".to_string()),
    };

    let mut client_cfg = ClientConfig::default();
    client_cfg.max_attempts = num_flag(args, "attempts", client_cfg.max_attempts)?;
    let timeout_ms: u64 = num_flag(args, "timeout-ms", 10_000u64)?;
    client_cfg.io_timeout = std::time::Duration::from_millis(timeout_ms);
    let client = Client::with_config(addr, client_cfg);

    let reply = client
        .request(&req)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", reply.render());
    let code = if reply_is_ok(&reply) {
        match reply
            .get("verdict")
            .and_then(enforcement::core::Json::as_str)
        {
            None | Some("released" | "certified" | "confirmed") => EXIT_OK,
            Some(_) => EXIT_VIOLATION,
        }
    } else {
        match reply.get("error").and_then(enforcement::core::Json::as_str) {
            Some("usage") => 2,
            _ => 3,
        }
    };
    Ok((out, code))
}

/// `--allow J` where omission means "every index" — pure observation.
fn parse_allow_or_full(args: &Args, arity: usize) -> Result<IndexSet, String> {
    match args.flag("allow") {
        Some(Some(v)) => parse_allow(v, arity),
        Some(None) => Err("--allow needs a value".into()),
        None => Ok(IndexSet::full(arity)),
    }
}

fn json_set(set: &IndexSet) -> String {
    let items: Vec<String> = set.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn json_exec(v: &ExecValue) -> String {
    match v {
        ExecValue::Value(n) => n.to_string(),
        ExecValue::Diverged => "null".to_string(),
    }
}

fn base_config(args: &Args, allow: IndexSet) -> SurvConfig {
    if args.has("timed") {
        SurvConfig::timed(allow)
    } else if args.has("highwater") {
        SurvConfig::highwater(allow)
    } else {
        SurvConfig::surveillance(allow)
    }
}

/// Builds the cancellation token for long sweeps from `--deadline` (wall
/// clock, fractional seconds) and `--budget` (max inputs evaluated).
fn build_cancel_token(args: &Args) -> Result<CancelToken, CliError> {
    let mut ctl = CancelToken::new();
    if let Some(v) = args.flag("deadline") {
        let v = v
            .as_deref()
            .ok_or_else(|| "--deadline needs a value (seconds)".to_string())?;
        // `try_from_secs_f64` rejects negative, NaN, infinite and
        // overflowing values in one call, and accepts `0` and `-0`.
        let deadline = v
            .parse()
            .ok()
            .and_then(|secs| std::time::Duration::try_from_secs_f64(secs).ok())
            .ok_or_else(|| format!("bad --deadline `{v}` (need non-negative seconds)"))?;
        ctl = ctl.with_deadline(deadline);
    }
    if let Some(v) = args.flag("budget") {
        let v = v
            .as_deref()
            .ok_or_else(|| "--budget needs a value (input count)".to_string())?;
        let limit: usize = v
            .parse()
            .map_err(|_| format!("bad --budget `{v}` (need an input count)"))?;
        ctl = ctl.with_index_limit(limit);
    }
    Ok(ctl)
}

/// Wires SIGINT to the token's cancellation flag: a ^C during a sweep
/// requests cooperative cancellation, the sweep reports partial coverage
/// (and persists its last checkpoint), and the process exits cleanly.
fn install_sigint(ctl: &CancelToken) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static SIGINT_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_sigint(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        if let Some(flag) = SIGINT_FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }
    if SIGINT_FLAG.set(ctl.handle()).is_ok() {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: installs a handler that performs a single atomic store.
        unsafe { signal(SIGINT, on_sigint) };
    }
}
