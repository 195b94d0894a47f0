//! The [`Enforcer`]: every monitor-backed path from [`Tainted`] to
//! [`crate::Verified`].
//!
//! An `Enforcer` binds one program to one policy and offers exactly three
//! ways to turn tainted input into verified output, one per
//! [`crate::proof`] discipline:
//!
//! * [`Enforcer::certify`] — a static analysis certifies the program, and
//!   the returned [`Certificate`] runs it natively
//!   ([`crate::proof::Certified`]);
//! * [`Enforcer::surveil`] — the dynamic monitor (AST stepper or bytecode
//!   VM) tracks taints through one execution
//!   ([`crate::proof::Monitored`]);
//! * [`Enforcer::sweep`] — an exhaustive soundness sweep over the input
//!   domain yields a [`SoundnessWarrant`] whose runs attest under
//!   [`crate::proof::Swept`].
//!
//! Every path appends its verdict to the caller's [`AuditLog`] before any
//! `Verified` value is minted, so the audit trail is a superset of the
//! release history: nothing is attested, refused, or released silently.

use crate::audit::{indexset_json, AuditLog};
use crate::evidence::{sweep_fields, Evidence};
use crate::proof::{self, Proof};
use crate::tainted::Tainted;
use crate::verified::Verified;
use enf_core::checkpoint::{
    check_soundness_checkpointed, read_checkpoint_file, write_checkpoint_file, CheckpointCodec,
    SoundnessCheckpoint,
};
use enf_core::label::{Classification, IntransitiveFlow, Level};
use enf_core::{
    fingerprint, try_check_soundness_scheduled, try_check_soundness_with,
    validate_scheduled_witness, Allow, CancelToken, Coverage, EnfError, EvalConfig, Grid, Identity,
    IndexSet, InputDomain, Json, Mechanism, ScheduledReport, ScheduledWitness, Verdict, V,
};
use enf_flowchart::bytecode::Compiled;
use enf_flowchart::interp::ExecValue;
use enf_flowchart::{Flowchart, FlowchartProgram, LabeledProgram, NodeId};
use enf_static::certify::{certify, Analysis, Certification};
use enf_surveillance::dynamic::{run_surveillance, SurvConfig, SurvOutcome};
use enf_surveillance::vm::run_surveillance_vm;
use enf_surveillance::{Surveillance, TimedMechanism, VmSurveillance};
use std::path::Path;
use std::sync::Arc;

/// A failure of the typed pipeline, classified by blame.
#[derive(Debug)]
pub enum PolicyError {
    /// The embedder asked for something malformed (arity mismatch, policy
    /// index out of range, an unsupported mode combination).
    Usage(String),
    /// The engine itself failed (panicking subject, corrupt checkpoint,
    /// unwritable audit log).
    Engine(EnfError),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Usage(m) => f.write_str(m),
            PolicyError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<EnfError> for PolicyError {
    fn from(e: EnfError) -> Self {
        PolicyError::Engine(e)
    }
}

/// The dynamic discipline an [`Enforcer`] monitors under (the three
/// mechanism families of the paper's M′ constructions).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Discipline {
    /// Plain surveillance: taints replace on assignment, checked at HALT.
    #[default]
    Surveillance,
    /// Observable time: the M′ wrapper that releases step counts.
    Timed,
    /// High-water accumulation: taints only grow, checked at HALT.
    HighWater,
}

impl Discipline {
    /// Machine-readable discipline name used in audit records.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::Surveillance => "surveillance",
            Discipline::Timed => "timed",
            Discipline::HighWater => "highwater",
        }
    }
}

/// Which executor runs the dynamic disciplines. The engines are
/// differentially pinned bit-identical, so the choice only affects speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The flowchart AST stepper.
    Ast,
    /// The register-bytecode VM (the default).
    #[default]
    Vm,
}

impl Engine {
    /// Machine-readable engine name used in audit records.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ast => "ast",
            Engine::Vm => "vm",
        }
    }
}

/// Why a monitored run refused to release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The release check fired: the taint reaching the check site exceeds
    /// the policy.
    Violation {
        /// The node where the failing check fired.
        site: NodeId,
        /// The offending taint set at the check.
        taint: IndexSet,
        /// `taint \ allow` — the indices actually leaking.
        disallowed: IndexSet,
        /// Boxes executed up to and including the check.
        steps: u64,
    },
    /// The fuel bound ran out before any check could pass.
    OutOfFuel {
        /// The exhausted fuel bound.
        fuel: u64,
    },
}

/// Outcome of one monitored run: a [`Verified`] value or a [`Refusal`].
#[derive(Debug)]
pub enum RunVerdict<P: Proof> {
    /// The monitor accepted; the value awaits release through a
    /// [`crate::Sink`].
    Released(Verified<V, P>),
    /// The monitor refused; no value exists.
    Refused(Refusal),
}

/// Outcome of [`Enforcer::certify`].
#[derive(Debug)]
pub enum CertifyOutcome<'e> {
    /// The analysis certified the program; the certificate runs it
    /// natively.
    Certified(Certificate<'e>),
    /// The analysis rejected: some HALT may release the offending taint.
    Rejected {
        /// The static taint that exceeds the policy.
        taint: IndexSet,
    },
}

impl CertifyOutcome<'_> {
    /// Whether the program was certified.
    pub fn is_certified(&self) -> bool {
        matches!(self, CertifyOutcome::Certified(_))
    }

    /// The raw static verdict (for reporting).
    pub fn certification(&self) -> Certification {
        match self {
            CertifyOutcome::Certified(_) => Certification::Certified,
            CertifyOutcome::Rejected { taint } => Certification::Rejected { taint: *taint },
        }
    }
}

/// A static certificate: proof that the program may run unmonitored.
///
/// Obtained only from [`Enforcer::certify`] on a certified program; its
/// [`Certificate::run`] executes natively (no monitor in the loop) and
/// attests the result under [`crate::proof::Certified`].
#[derive(Debug)]
pub struct Certificate<'e> {
    enforcer: &'e Enforcer,
    analysis: Analysis,
}

impl Certificate<'_> {
    /// The analysis that certified.
    pub fn analysis(&self) -> Analysis {
        self.analysis
    }

    /// Runs the certified program natively on a tainted input and attests
    /// the released value. Divergence (fuel exhaustion) is itself a value
    /// of the total program and is attested as such.
    pub fn run(
        &self,
        input: Tainted<Vec<V>>,
        log: &mut AuditLog,
    ) -> Result<Verified<ExecValue, proof::Certified>, PolicyError> {
        let e = self.enforcer;
        e.check_arity(&input)?;
        use enf_core::Program as _;
        let value = e.program().eval(input.peek());
        let evidence = Evidence::Certificate {
            analysis: self.analysis,
        };
        e.append_attest(log, proof::Certified::NAME, &evidence)?;
        Ok(Verified::attest(
            value,
            e.arity,
            e.allow,
            e.fingerprint,
            evidence,
        ))
    }
}

/// Result of an exhaustive soundness sweep over `[-span, span]^k`.
///
/// Carries the coverage verdict and, when the sweep confirmed soundness
/// over the *whole* domain, a [`SoundnessWarrant`] for attesting runs.
#[derive(Debug)]
pub struct SweepOutcome<'e> {
    checked: usize,
    total: usize,
    verdict: Verdict,
    warrant: Option<SoundnessWarrant<'e>>,
}

impl<'e> SweepOutcome<'e> {
    /// Inputs actually evaluated before the sweep ended.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// Size of the declared input domain.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The sweep verdict: confirmed sound, refuted, or cut short.
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// The warrant, if the sweep confirmed full coverage.
    pub fn warrant(self) -> Option<SoundnessWarrant<'e>> {
        self.warrant
    }
}

/// Proof that the mechanism was swept sound over its whole domain.
///
/// Only a [`SweepOutcome`] with a `Confirmed` verdict carries one; its
/// [`SoundnessWarrant::run`] monitors an execution and attests under
/// [`crate::proof::Swept`] with [`Evidence::Coverage`].
#[derive(Debug)]
pub struct SoundnessWarrant<'e> {
    enforcer: &'e Enforcer,
    checked: usize,
    total: usize,
}

impl SoundnessWarrant<'_> {
    /// Runs the proven-sound mechanism on a tainted input.
    pub fn run(
        &self,
        input: Tainted<Vec<V>>,
        log: &mut AuditLog,
    ) -> Result<RunVerdict<proof::Swept>, PolicyError> {
        self.enforcer
            .monitored(input, log, |steps| Evidence::Coverage {
                checked: self.checked,
                total: self.total,
                steps,
            })
    }
}

/// Result of a policy-schedule sweep ([`Enforcer::sweep_scheduled`]).
#[derive(Clone, Debug)]
pub enum ScheduledOutcome {
    /// Every enumerated schedule passed the anchored-class check.
    Sound {
        /// Number of schedules swept.
        schedules: usize,
        /// Number of inputs enumerated per schedule.
        inputs: usize,
    },
    /// Some schedule admits a leak.
    Unsound {
        /// The offending schedule and input pair.
        witness: ScheduledWitness<ExecValue>,
        /// Whether an independent replay reproduced the witness.
        validated: bool,
    },
    /// The token cut the sweep before any schedule failed; nothing is
    /// claimed.
    Unknown {
        /// Schedules swept in full: the prefix `0..checked` of the
        /// canonical enumeration.
        checked: usize,
        /// Schedules the sweep would have covered.
        total: usize,
    },
}

impl ScheduledOutcome {
    /// Whether every schedule passed.
    pub fn is_sound(&self) -> bool {
        matches!(self, ScheduledOutcome::Sound { .. })
    }
}

/// One program bound to one policy: the factory for every verified value.
///
/// ```
/// use enf_policy::{AuditLog, Capability, Enforcer, RunVerdict, Sink, Tainted};
/// use enf_core::IndexSet;
///
/// let fc = enf_flowchart::parse("program(2) { y := x1 + 1; }").unwrap();
/// let mut log = AuditLog::in_memory();
/// let enforcer = Enforcer::new(fc, IndexSet::from_iter([1])).unwrap();
/// let cap = Capability::issue("stdout", &mut log).unwrap();
/// match enforcer.surveil(Tainted::new(vec![4, 7]), &mut log).unwrap() {
///     RunVerdict::Released(v) => {
///         let y = Sink::new(cap, &mut log).release(v).unwrap();
///         assert_eq!(y, 5);
///     }
///     RunVerdict::Refused(r) => panic!("refused: {r:?}"),
/// }
/// assert_eq!(log.len(), 3); // grant, attest, release
/// ```
#[derive(Clone, Debug)]
pub struct Enforcer {
    fc: Flowchart,
    allow: IndexSet,
    arity: usize,
    discipline: Discipline,
    engine: Engine,
    fuel: u64,
    fingerprint: u64,
    lattice: Option<LatticeBinding>,
}

/// The label-policy side of a lattice-bound [`Enforcer`]: the labeling,
/// the (possibly intransitive) flow relation, and the clearance the
/// policy is reduced at.
#[derive(Clone, Debug)]
struct LatticeBinding {
    classification: Classification<Level>,
    flow: IntransitiveFlow<Level>,
    clearance: Level,
}

impl Enforcer {
    /// Binds `fc` to the policy allowing `allow`. Rejects policy indices
    /// outside the program's arity.
    pub fn new(fc: Flowchart, allow: IndexSet) -> Result<Enforcer, PolicyError> {
        let arity = fc.arity();
        if let Some(i) = allow.iter().find(|i| *i == 0 || *i > arity) {
            return Err(PolicyError::Usage(format!(
                "policy index {i} outside 1..={arity}"
            )));
        }
        let fingerprint = fc.fingerprint();
        Ok(Enforcer {
            fc,
            allow,
            arity,
            discipline: Discipline::default(),
            engine: Engine::default(),
            fuel: 1_000_000,
            fingerprint,
            lattice: None,
        })
    }

    /// Binds a labeled program to its lattice policy at a clearance.
    ///
    /// The fixed-clearance reduction `J_c = { i : label(i) ⇝* c }` becomes
    /// the enforcer's allow-set, so every dynamic path (surveil, sweep)
    /// monitors against the induced policy, and [`Verified`] values carry
    /// it. The static path gains [`Enforcer::certify_lattice`], which runs
    /// the intransitive-flow certifier against the full labeling instead
    /// of the reduction.
    pub fn new_lattice(program: LabeledProgram, clearance: Level) -> Result<Enforcer, PolicyError> {
        let LabeledProgram {
            flowchart,
            classification,
            flow,
        } = program;
        if classification.arity() != flowchart.arity() {
            return Err(PolicyError::Usage(format!(
                "labeling covers {} inputs but the program takes {}",
                classification.arity(),
                flowchart.arity()
            )));
        }
        let allow = classification.readable_allow(&flow, &clearance);
        let mut e = Enforcer::new(flowchart, allow)?;
        e.lattice = Some(LatticeBinding {
            classification,
            flow,
            clearance,
        });
        Ok(e)
    }

    /// Selects the dynamic discipline (default: plain surveillance).
    pub fn with_discipline(mut self, discipline: Discipline) -> Enforcer {
        self.discipline = discipline;
        self
    }

    /// Selects the executor (default: the bytecode VM).
    pub fn with_engine(mut self, engine: Engine) -> Enforcer {
        self.engine = engine;
        self
    }

    /// Sets the fuel bound (default: 1 000 000 boxes).
    pub fn with_fuel(mut self, fuel: u64) -> Enforcer {
        self.fuel = fuel;
        self
    }

    /// The program's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The allowed input indices.
    pub fn allow(&self) -> IndexSet {
        self.allow
    }

    /// The fuel bound.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// The active discipline.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The active engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The bound program's fingerprint (see `Flowchart::fingerprint`).
    pub fn program_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The clearance of a lattice-bound enforcer
    /// ([`Enforcer::new_lattice`]), `None` for a plain allow-set binding.
    pub fn clearance(&self) -> Option<Level> {
        self.lattice.as_ref().map(|l| l.clearance)
    }

    fn program(&self) -> FlowchartProgram {
        FlowchartProgram::with_fuel(self.fc.clone(), self.fuel)
    }

    fn surv_config(&self) -> SurvConfig {
        let cfg = match self.discipline {
            Discipline::Surveillance => SurvConfig::surveillance(self.allow),
            Discipline::Timed => SurvConfig::timed(self.allow),
            Discipline::HighWater => SurvConfig::highwater(self.allow),
        };
        cfg.with_fuel(self.fuel)
    }

    fn check_arity(&self, input: &Tainted<Vec<V>>) -> Result<(), PolicyError> {
        if input.arity() != self.arity {
            return Err(PolicyError::Usage(format!(
                "input has {} values but the program takes {}",
                input.arity(),
                self.arity
            )));
        }
        Ok(())
    }

    /// The shared prefix of every pipeline record: program, policy, and
    /// mode, with the `engine` that ran.
    fn base_fields(&self, engine: Engine) -> Vec<(String, Json)> {
        vec![
            (
                "program".to_string(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("arity".to_string(), Json::Int(self.arity as i128)),
            ("allow".to_string(), indexset_json(&self.allow)),
            (
                "discipline".to_string(),
                Json::Str(self.discipline.name().to_string()),
            ),
            ("engine".to_string(), Json::Str(engine.name().to_string())),
        ]
    }

    fn append_attest(
        &self,
        log: &mut AuditLog,
        proof: &str,
        evidence: &Evidence,
    ) -> Result<(), EnfError> {
        let mut fields = self.base_fields(self.engine);
        fields.push(("proof".to_string(), Json::Str(proof.to_string())));
        fields.push(("evidence".to_string(), evidence.to_json()));
        log.append("attest", fields)
    }

    fn append_refuse(&self, log: &mut AuditLog, refusal: &Refusal) -> Result<(), EnfError> {
        let mut fields = self.base_fields(self.engine);
        match refusal {
            Refusal::Violation {
                site,
                taint,
                disallowed,
                steps,
            } => {
                fields.push(("outcome".to_string(), Json::Str("violation".to_string())));
                fields.push(("site".to_string(), Json::Int(site.0 as i128)));
                fields.push(("taint".to_string(), indexset_json(taint)));
                fields.push(("disallowed".to_string(), indexset_json(disallowed)));
                fields.push(("steps".to_string(), Json::Int(i128::from(*steps))));
            }
            Refusal::OutOfFuel { fuel } => {
                fields.push(("outcome".to_string(), Json::Str("out_of_fuel".to_string())));
                fields.push(("fuel".to_string(), Json::Int(i128::from(*fuel))));
            }
        }
        log.append("refuse", fields)
    }

    /// One monitored run: executes under the active discipline and engine,
    /// appends `attest` or `refuse`, and mints on acceptance.
    fn monitored<P: Proof>(
        &self,
        input: Tainted<Vec<V>>,
        log: &mut AuditLog,
        evidence: impl FnOnce(u64) -> Evidence,
    ) -> Result<RunVerdict<P>, PolicyError> {
        self.check_arity(&input)?;
        let cfg = self.surv_config();
        let outcome = match self.engine {
            Engine::Ast => run_surveillance(&self.fc, input.peek(), &cfg),
            Engine::Vm => run_surveillance_vm(&Compiled::new(&self.fc), input.peek(), &cfg),
        };
        match outcome {
            SurvOutcome::Accepted { y, steps } => {
                let evidence = evidence(steps);
                self.append_attest(log, P::NAME, &evidence)?;
                Ok(RunVerdict::Released(Verified::attest(
                    y,
                    self.arity,
                    self.allow,
                    self.fingerprint,
                    evidence,
                )))
            }
            SurvOutcome::Violation { site, taint, steps } => {
                let refusal = Refusal::Violation {
                    site,
                    taint,
                    disallowed: taint.difference(&self.allow),
                    steps,
                };
                self.append_refuse(log, &refusal)?;
                Ok(RunVerdict::Refused(refusal))
            }
            SurvOutcome::OutOfFuel => {
                let refusal = Refusal::OutOfFuel { fuel: self.fuel };
                self.append_refuse(log, &refusal)?;
                Ok(RunVerdict::Refused(refusal))
            }
        }
    }

    /// The monitored path: one run under surveillance, attesting under
    /// [`crate::proof::Monitored`] with [`Evidence::Trace`].
    pub fn surveil(
        &self,
        input: Tainted<Vec<V>>,
        log: &mut AuditLog,
    ) -> Result<RunVerdict<proof::Monitored>, PolicyError> {
        self.monitored(input, log, |steps| Evidence::Trace { steps })
    }

    /// The static path: runs `analysis` against the policy and records the
    /// verdict. A certified program yields a [`Certificate`] for native
    /// (unmonitored) attesting runs.
    pub fn certify(
        &self,
        analysis: Analysis,
        log: &mut AuditLog,
    ) -> Result<CertifyOutcome<'_>, PolicyError> {
        let cert = certify(&self.fc, self.allow, analysis);
        let mut fields = self.base_fields(self.engine);
        fields.push((
            "analysis".to_string(),
            Json::Str(analysis.name().to_string()),
        ));
        fields.push((
            "verdict".to_string(),
            Json::Str(
                if cert.is_certified() {
                    "certified"
                } else {
                    "rejected"
                }
                .to_string(),
            ),
        ));
        if let Some(taint) = cert.taint() {
            fields.push(("taint".to_string(), indexset_json(&taint)));
        }
        log.append("certify", fields)?;
        Ok(match cert {
            Certification::Certified => CertifyOutcome::Certified(Certificate {
                enforcer: self,
                analysis,
            }),
            Certification::Rejected { taint } => CertifyOutcome::Rejected { taint },
        })
    }

    /// The lattice static path: runs the intransitive-flow certifier
    /// against the full labeling bound by [`Enforcer::new_lattice`] (not
    /// just the fixed-clearance reduction — sanctioned `declassify` boxes
    /// can certify programs every transitive analysis rejects). Records
    /// the labeling, flow edges, clearance and verdict in the audit trail;
    /// a certified program yields a [`Certificate`] whose runs attest
    /// under [`crate::proof::Certified`] with the `lattice` analysis.
    pub fn certify_lattice(&self, log: &mut AuditLog) -> Result<CertifyOutcome<'_>, PolicyError> {
        let Some(binding) = &self.lattice else {
            return Err(PolicyError::Usage(
                "certify_lattice needs a lattice binding (Enforcer::new_lattice)".to_string(),
            ));
        };
        let cert = enf_static::label::certify_lattice(
            &self.fc,
            &binding.classification,
            &binding.flow,
            &binding.clearance,
        );
        let mut fields = self.base_fields(self.engine);
        fields.push((
            "analysis".to_string(),
            Json::Str(Analysis::LatticeCertified.name().to_string()),
        ));
        fields.push((
            "labels".to_string(),
            Json::Arr(
                binding
                    .classification
                    .labels()
                    .iter()
                    .map(|l| Json::Str(l.name().to_string()))
                    .collect(),
            ),
        ));
        fields.push((
            "flow".to_string(),
            Json::Arr(
                binding
                    .flow
                    .edges()
                    .iter()
                    .map(|(a, b)| {
                        Json::Arr(vec![
                            Json::Str(a.name().to_string()),
                            Json::Str(b.name().to_string()),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "clearance".to_string(),
            Json::Str(binding.clearance.name().to_string()),
        ));
        fields.push((
            "verdict".to_string(),
            Json::Str(
                if cert.is_certified() {
                    "certified"
                } else {
                    "rejected"
                }
                .to_string(),
            ),
        ));
        if let Some(taint) = cert.taint() {
            fields.push(("taint".to_string(), indexset_json(&taint)));
        }
        log.append("certify", fields)?;
        Ok(match cert {
            Certification::Certified => CertifyOutcome::Certified(Certificate {
                enforcer: self,
                analysis: Analysis::LatticeCertified,
            }),
            Certification::Rejected { taint } => CertifyOutcome::Rejected { taint },
        })
    }

    fn policy(&self) -> Allow {
        Allow::from_set(self.arity, self.allow)
    }

    fn append_sweep(
        &self,
        log: &mut AuditLog,
        engine: Engine,
        mode: &str,
        span: i64,
        extra: Vec<(String, Json)>,
    ) -> Result<(), EnfError> {
        let mut fields = self.base_fields(engine);
        fields.push(("mode".to_string(), Json::Str(mode.to_string())));
        fields.push(("span".to_string(), Json::Int(i128::from(span))));
        fields.extend(extra);
        log.append("sweep", fields)
    }

    fn sweep_outcome(&self, coverage: Coverage<()>) -> SweepOutcome<'_> {
        let warrant = (coverage.verdict == Verdict::Confirmed).then_some(SoundnessWarrant {
            enforcer: self,
            checked: coverage.checked,
            total: coverage.total,
        });
        SweepOutcome {
            checked: coverage.checked,
            total: coverage.total,
            verdict: coverage.verdict,
            warrant,
        }
    }

    /// The exhaustive path: checks mechanism soundness over
    /// `[-span, span]^k` under the active discipline and engine. A
    /// confirmed sweep yields a [`SoundnessWarrant`].
    pub fn sweep(
        &self,
        span: i64,
        eval: &EvalConfig,
        ctl: &CancelToken,
        log: &mut AuditLog,
    ) -> Result<SweepOutcome<'_>, PolicyError> {
        self.sweep_with(span, eval, ctl, None, log)
    }

    /// The exhaustive path with fault tolerance: persists progress every
    /// `block` inputs to `checkpoint_path` and resumes from `resume_path`.
    /// `salt` ties checkpoints to this exact sweep (see [`check_salt`]).
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_checkpointed(
        &self,
        span: i64,
        eval: &EvalConfig,
        ctl: &CancelToken,
        salt: u64,
        block: usize,
        resume_path: Option<&Path>,
        checkpoint_path: Option<&Path>,
        log: &mut AuditLog,
    ) -> Result<SweepOutcome<'_>, PolicyError> {
        let persist = Persist {
            salt,
            block,
            resume_path,
            checkpoint_path,
        };
        self.sweep_with(span, eval, ctl, Some(persist), log)
    }

    /// The one body of [`Enforcer::sweep`] and
    /// [`Enforcer::sweep_checkpointed`]: picks the mechanism, sweeps, and
    /// audits the outcome with the engine that ran. A timed sweep runs the
    /// AST stepper whatever the bound engine: its output is the run's step
    /// count, which only [`TimedMechanism`] observes.
    fn sweep_with(
        &self,
        span: i64,
        eval: &EvalConfig,
        ctl: &CancelToken,
        persist: Option<Persist<'_>>,
        log: &mut AuditLog,
    ) -> Result<SweepOutcome<'_>, PolicyError> {
        let mode = if persist.is_some() {
            "checkpointed"
        } else {
            "fixed"
        };
        let grid = sweep_grid(self.arity, span)?;
        let policy = self.policy();
        let cfg = self.surv_config();
        let (engine, coverage) = match (self.discipline, self.engine) {
            (Discipline::Timed, _) => {
                if persist.is_some() {
                    return Err(PolicyError::Usage(
                        "timed sweeps cannot be checkpointed (their output shape has no codec)"
                            .to_string(),
                    ));
                }
                let m = TimedMechanism::from_config(self.fc.clone(), cfg);
                let coverage = coverage_of(&Identity::new(&m), &policy, &grid, eval, ctl)?;
                (Engine::Ast, coverage)
            }
            (_, Engine::Vm) => {
                let m = VmSurveillance::from_compiled(Arc::new(Compiled::new(&self.fc)), cfg);
                let coverage = exec_coverage(&m, &policy, &grid, eval, ctl, persist)?;
                (Engine::Vm, coverage)
            }
            (_, Engine::Ast) => {
                let m = Surveillance::from_config(self.program(), cfg);
                let coverage = exec_coverage(&m, &policy, &grid, eval, ctl, persist)?;
                (Engine::Ast, coverage)
            }
        };
        self.append_sweep(
            log,
            engine,
            mode,
            span,
            sweep_fields(coverage.checked, coverage.total, coverage.verdict),
        )?;
        Ok(self.sweep_outcome(coverage))
    }

    /// The scheduled oracle: soundness under every bounded policy schedule
    /// (at most `cap` of the canonical enumeration). Runs on the stepper;
    /// an unsound schedule's witness is independently replay-validated.
    ///
    /// `ctl` is read between schedules, never inside one schedule's input
    /// sweep, and its deadline once every [`enf_core::par::DEADLINE_STRIDE`]
    /// schedules; its index limit counts schedules. A cut sweep is
    /// [`ScheduledOutcome::Unknown`], and a subject panic is
    /// [`PolicyError::Engine`].
    pub fn sweep_scheduled(
        &self,
        span: i64,
        eval: &EvalConfig,
        cap: Option<usize>,
        ctl: &CancelToken,
        log: &mut AuditLog,
    ) -> Result<ScheduledOutcome, PolicyError> {
        let grid = sweep_grid(self.arity, span)?;
        let program = self.program();
        let coverage =
            try_check_soundness_scheduled(&program, &self.policy(), &grid, eval, cap, ctl)?;
        let outcome = match coverage.report {
            Some(ScheduledReport::Sound { schedules, inputs }) => {
                ScheduledOutcome::Sound { schedules, inputs }
            }
            Some(ScheduledReport::Unsound(witness)) => {
                let validated = validate_scheduled_witness(&program, &witness);
                ScheduledOutcome::Unsound { witness, validated }
            }
            None => ScheduledOutcome::Unknown {
                checked: coverage.checked,
                total: coverage.total,
            },
        };
        let extra = match &outcome {
            ScheduledOutcome::Sound { schedules, inputs } => vec![
                ("verdict".to_string(), Json::Str("sound".to_string())),
                ("schedules".to_string(), Json::Int(*schedules as i128)),
                ("inputs".to_string(), Json::Int(*inputs as i128)),
            ],
            ScheduledOutcome::Unsound { witness, validated } => vec![
                ("verdict".to_string(), Json::Str("unsound".to_string())),
                (
                    "schedule_index".to_string(),
                    Json::Int(witness.schedule_index as i128),
                ),
                ("validated".to_string(), Json::Bool(*validated)),
            ],
            ScheduledOutcome::Unknown { checked, total } => {
                sweep_fields(*checked, *total, Verdict::Unknown)
            }
        };
        self.append_sweep(log, Engine::Ast, "scheduled", span, extra)?;
        Ok(outcome)
    }
}

/// Runs the fault-tolerant soundness sweep, keeping only coverage.
fn coverage_of<M>(
    mechanism: &M,
    policy: &Allow,
    grid: &Grid,
    eval: &EvalConfig,
    ctl: &CancelToken,
) -> Result<Coverage<()>, EnfError>
where
    M: Mechanism + Sync,
    M::Out: Eq + std::hash::Hash + Send,
{
    Ok(try_check_soundness_with(mechanism, policy, grid, false, eval, ctl)?.map(|_| ()))
}

/// Where a checkpointed sweep persists its progress.
struct Persist<'p> {
    salt: u64,
    block: usize,
    resume_path: Option<&'p Path>,
    checkpoint_path: Option<&'p Path>,
}

/// Sweeps a dynamic mechanism, checkpointed through the atomic checkpoint
/// files when `persist` is given.
fn exec_coverage<M>(
    mechanism: &M,
    policy: &Allow,
    grid: &Grid,
    eval: &EvalConfig,
    ctl: &CancelToken,
    persist: Option<Persist<'_>>,
) -> Result<Coverage<()>, EnfError>
where
    M: Mechanism<Out = ExecValue> + Sync,
{
    let Some(persist) = persist else {
        return coverage_of(mechanism, policy, grid, eval, ctl);
    };
    let resume = match persist.resume_path {
        Some(p) => {
            let doc = read_checkpoint_file(p)?;
            Some(SoundnessCheckpoint::from_json(&ExecCodec, &doc)?)
        }
        None => None,
    };
    let mut sink = |ckpt: &SoundnessCheckpoint<ExecValue, Vec<V>>| match persist.checkpoint_path {
        Some(p) => write_checkpoint_file(p, &ckpt.to_json(&ExecCodec)),
        None => Ok(()),
    };
    let coverage = check_soundness_checkpointed(
        mechanism,
        policy,
        grid,
        false,
        eval,
        ctl,
        persist.salt,
        persist.block,
        resume.as_ref(),
        &mut sink,
    )?;
    Ok(coverage.map(|_| ()))
}

/// The grid `[-span, span]^arity` that `check` and `refute` sweep, or a
/// usage error when `span` is negative or the grid has more inputs than a
/// `usize` counts.
pub fn sweep_grid(arity: usize, span: i64) -> Result<Grid, PolicyError> {
    let Some(low) = span.checked_neg().filter(|low| *low <= span) else {
        return Err(PolicyError::Usage(format!(
            "span {span} must be non-negative"
        )));
    };
    let grid = Grid::hypercube(arity, low..=span);
    match grid.len_checked() {
        Some(_) => Ok(grid),
        None => Err(PolicyError::Usage(format!(
            "the grid [{low}, {span}]^{arity} has more inputs than a sweep can count"
        ))),
    }
}

/// Fingerprint salt for checkpointed sweeps: hashes the program text and
/// every sweep parameter, so a checkpoint resumed under a different
/// program, policy, grid, fuel, or mechanism variant is rejected instead
/// of silently merged. The engine is deliberately absent — the two
/// engines are bit-identical, so checkpoints are interchangeable.
pub fn check_salt(src: &str, allow: IndexSet, span: i64, fuel: u64, highwater: bool) -> u64 {
    let words = src
        .bytes()
        .map(u64::from)
        .chain(allow.iter().map(|i| i as u64));
    // u64::MAX separates the index list from the parameters.
    fingerprint(words.chain([u64::MAX, span as u64, fuel, u64::from(highwater)]))
}

/// Checkpoint codec for the dynamic mechanisms' output shape:
/// [`ExecValue`] outputs and `Vec<V>` policy views.
struct ExecCodec;

impl CheckpointCodec<ExecValue, Vec<V>> for ExecCodec {
    fn encode_out(&self, out: &ExecValue) -> Json {
        match out {
            ExecValue::Value(v) => Json::Int(i128::from(*v)),
            ExecValue::Diverged => Json::Null,
        }
    }

    fn decode_out(&self, json: &Json) -> Result<ExecValue, String> {
        match json {
            Json::Null => Ok(ExecValue::Diverged),
            _ => json
                .as_int()
                .and_then(|n| V::try_from(n).ok())
                .map(ExecValue::Value)
                .ok_or_else(|| "expected integer output or null".to_string()),
        }
    }

    fn encode_view(&self, view: &Vec<V>) -> Json {
        Json::Arr(view.iter().map(|v| Json::Int(i128::from(*v))).collect())
    }

    fn decode_view(&self, json: &Json) -> Result<Vec<V>, String> {
        json.as_arr()
            .ok_or_else(|| "expected view array".to_string())?
            .iter()
            .map(|item| {
                item.as_int()
                    .and_then(|n| V::try_from(n).ok())
                    .ok_or_else(|| "expected integer view element".to_string())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::verify_chain;
    use crate::capability::Capability;
    use crate::sink::Sink;
    use enf_flowchart::parse;
    use proptest::prelude::*;

    const LEAKY: &str = "program(2) { y := x1 + x2; }";

    fn enforcer(src: &str, allow: &[usize]) -> Enforcer {
        let fc = parse(src).unwrap();
        Enforcer::new(fc, IndexSet::from_iter(allow.iter().copied())).unwrap()
    }

    fn release<P: Proof>(verdict: RunVerdict<P>, log: &mut AuditLog) -> V {
        match verdict {
            RunVerdict::Released(v) => {
                let cap = Capability::issue("test", log).unwrap();
                Sink::new(cap, log).release(v).unwrap()
            }
            RunVerdict::Refused(r) => panic!("refused: {r:?}"),
        }
    }

    #[test]
    fn policy_outside_arity_is_rejected() {
        let fc = parse(LEAKY).unwrap();
        assert!(matches!(
            Enforcer::new(fc, IndexSet::from_iter([3])),
            Err(PolicyError::Usage(_))
        ));
    }

    #[test]
    fn arity_mismatch_is_usage() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        assert!(matches!(
            e.surveil(Tainted::new(vec![1]), &mut log),
            Err(PolicyError::Usage(_))
        ));
    }

    #[test]
    fn surveil_releases_under_full_policy() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        let verdict = e.surveil(Tainted::new(vec![4, 7]), &mut log).unwrap();
        assert_eq!(release(verdict, &mut log), 11);
        assert!(verify_chain(&log.render()).is_intact());
        let kinds: Vec<_> = log
            .lines()
            .iter()
            .map(|l| {
                enf_core::json::parse(l)
                    .unwrap()
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["attest", "grant", "release"]);
    }

    #[test]
    fn surveil_refuses_a_leak_and_records_it() {
        let e = enforcer(LEAKY, &[1]);
        let mut log = AuditLog::in_memory();
        match e.surveil(Tainted::new(vec![4, 7]), &mut log).unwrap() {
            RunVerdict::Refused(Refusal::Violation {
                taint, disallowed, ..
            }) => {
                assert!(taint.contains(2));
                assert!(disallowed.contains(2));
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(log.len(), 1);
        assert!(log.lines()[0].contains("\"kind\":\"refuse\""));
    }

    #[test]
    fn engines_agree_on_the_verdict_and_audit_shape() {
        for allow in [&[1_usize, 2][..], &[1][..]] {
            let mut logs = Vec::new();
            for engine in [Engine::Ast, Engine::Vm] {
                let e = enforcer(LEAKY, allow).with_engine(engine);
                let mut log = AuditLog::in_memory();
                let _ = e.surveil(Tainted::new(vec![2, 3]), &mut log).unwrap();
                // Engine name differs by construction; blank it out to
                // compare the rest of the record byte-for-byte.
                logs.push(log.render().replace("\"ast\"", "\"vm\""));
            }
            // Hashes differ (the engine field is hashed); compare kinds
            // and verdict-bearing fields instead.
            let strip = |s: &str| {
                s.lines()
                    .map(|l| {
                        let j = enf_core::json::parse(l).unwrap();
                        format!(
                            "{:?}/{:?}/{:?}",
                            j.get("kind").and_then(Json::as_str),
                            j.get("outcome").and_then(Json::as_str),
                            j.get("evidence").map(Json::render)
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip(&logs[0]), strip(&logs[1]));
        }
    }

    #[test]
    fn certificate_runs_natively_and_attests() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        let outcome = e.certify(Analysis::Surveillance, &mut log).unwrap();
        let cert = match outcome {
            CertifyOutcome::Certified(c) => c,
            CertifyOutcome::Rejected { taint } => panic!("rejected with taint {taint}"),
        };
        let v = cert.run(Tainted::new(vec![4, 7]), &mut log).unwrap();
        assert_eq!(v.evidence().kind(), "certificate");
        let cap = Capability::issue("test", &mut log).unwrap();
        let y = Sink::new(cap, &mut log).release(v).unwrap();
        assert_eq!(y, ExecValue::Value(11));
        assert!(verify_chain(&log.render()).is_intact());
    }

    #[test]
    fn rejected_program_yields_no_certificate() {
        let e = enforcer(LEAKY, &[1]);
        let mut log = AuditLog::in_memory();
        match e.certify(Analysis::Surveillance, &mut log).unwrap() {
            CertifyOutcome::Rejected { taint } => assert!(taint.contains(2)),
            CertifyOutcome::Certified(_) => panic!("leaky program certified"),
        }
        assert!(log.lines()[0].contains("\"verdict\":\"rejected\""));
    }

    #[test]
    fn sweep_warrant_attests_with_coverage_evidence() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        let outcome = e
            .sweep(2, &EvalConfig::default(), &CancelToken::new(), &mut log)
            .unwrap();
        assert_eq!(outcome.verdict(), Verdict::Confirmed);
        let warrant = outcome.warrant().expect("confirmed sweep has a warrant");
        let verdict = warrant.run(Tainted::new(vec![1, 2]), &mut log).unwrap();
        let y = release(verdict, &mut log);
        assert_eq!(y, 3);
        let release_line = log.lines().last().unwrap();
        assert!(release_line.contains("\"kind\":\"coverage\""));
        assert!(verify_chain(&log.render()).is_intact());
    }

    #[test]
    fn unsound_sweep_has_no_warrant() {
        // Surveillance of y := x1 + x2 under allow(1) refuses everywhere —
        // use a program sound on some inputs but not others.
        let e = enforcer(
            "program(2) { if x2 > 0 { y := x1; } else { y := x2; } }",
            &[1],
        );
        let mut log = AuditLog::in_memory();
        let outcome = e
            .sweep(2, &EvalConfig::default(), &CancelToken::new(), &mut log)
            .unwrap();
        if outcome.verdict() != Verdict::Confirmed {
            assert!(outcome.warrant().is_none());
        }
    }

    #[test]
    fn lattice_certificate_releases_the_declared_bit() {
        // The full lattice pipeline: password_release binds at clearance
        // unclassified, the intransitive certifier accepts the sanctioned
        // one-bit release, and the certificate mints a Verified value the
        // sink can let out.
        let lp = enf_flowchart::corpus::password_release_labeled();
        let e = Enforcer::new_lattice(lp, Level::Unclassified).unwrap();
        assert_eq!(e.clearance(), Some(Level::Unclassified));
        // The induced reduction closes over the release edge: both inputs
        // are readable at the bottom clearance.
        assert_eq!(e.allow(), IndexSet::from_iter([1, 2]));
        let mut log = AuditLog::in_memory();
        let cert = match e.certify_lattice(&mut log).unwrap() {
            CertifyOutcome::Certified(c) => c,
            CertifyOutcome::Rejected { taint } => panic!("rejected with taint {taint}"),
        };
        assert_eq!(cert.analysis(), Analysis::LatticeCertified);
        let v = cert.run(Tainted::new(vec![7, 7]), &mut log).unwrap();
        let cap = Capability::issue("test", &mut log).unwrap();
        let y = Sink::new(cap, &mut log).release(v).unwrap();
        assert_eq!(y, ExecValue::Value(1));
        assert!(verify_chain(&log.render()).is_intact());
        assert!(log.lines()[0].contains("\"analysis\":\"lattice\""));
        assert!(log.lines()[0].contains("\"clearance\":\"unclassified\""));
    }

    #[test]
    fn lattice_rejection_names_the_unmediated_index() {
        // Same program without the release edge: the declassify box is
        // unsanctioned, so certification fails and no certificate exists.
        let lp = enf_flowchart::parse_labeled(
            "program(2)
             labels { x1: secret; }
             { r1 := ite(x1 == x2, 1, 0); declassify(r1: 1 ~>); y := r1; }",
        )
        .unwrap();
        let e = Enforcer::new_lattice(lp, Level::Unclassified).unwrap();
        assert_eq!(e.allow(), IndexSet::from_iter([2]));
        let mut log = AuditLog::in_memory();
        match e.certify_lattice(&mut log).unwrap() {
            CertifyOutcome::Rejected { taint } => assert_eq!(taint, IndexSet::from_iter([1])),
            CertifyOutcome::Certified(_) => panic!("unsanctioned release certified"),
        }
    }

    #[test]
    fn certify_lattice_without_binding_is_usage() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        assert!(matches!(
            e.certify_lattice(&mut log),
            Err(PolicyError::Usage(_))
        ));
    }

    #[test]
    fn scheduled_sweep_reports_soundness() {
        let e = enforcer(LEAKY, &[1, 2]);
        let mut log = AuditLog::in_memory();
        let outcome = e
            .sweep_scheduled(
                1,
                &EvalConfig::default(),
                Some(4),
                &CancelToken::new(),
                &mut log,
            )
            .unwrap();
        assert!(outcome.is_sound());
        assert!(log.lines()[0].contains("\"mode\":\"scheduled\""));
    }

    /// The word list `check_salt` collected before hashing it.
    fn collected_salt_words(
        src: &str,
        allow: IndexSet,
        span: i64,
        fuel: u64,
        highwater: bool,
    ) -> Vec<u64> {
        let mut words: Vec<u64> = src.bytes().map(u64::from).collect();
        words.extend(allow.iter().map(|i| i as u64));
        words.push(u64::MAX);
        words.push(span as u64);
        words.push(fuel);
        words.push(u64::from(highwater));
        words
    }

    proptest! {
        /// Folding the words straight into the hash keeps every salt, and
        /// with it every checkpoint fingerprint an earlier build wrote.
        #[test]
        fn check_salt_hashes_the_collected_words(
            src in "\\PC*",
            bits in any::<u64>(),
            span in any::<i64>(),
            fuel in any::<u64>(),
            highwater in any::<bool>(),
        ) {
            let allow = IndexSet::from_bits(bits);
            let words = collected_salt_words(&src, allow, span, fuel, highwater);
            prop_assert_eq!(
                check_salt(&src, allow, span, fuel, highwater),
                fingerprint(&words)
            );
        }
    }
}
