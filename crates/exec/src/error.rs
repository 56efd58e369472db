//! Execution-layer errors.

use std::fmt;

use qap_expr::ExprError;
use qap_types::TypeError;

/// Errors raised while compiling or running a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Expression binding/evaluation failed.
    Expr(ExprError),
    /// The plan is not executable (missing temporal attribute, bad
    /// structure). Indicates a planner bug — well-formed DAGs compile.
    BadPlan(String),
    /// A tuple was pushed to a node that is not a source scan.
    NotASource(usize),
    /// A wire frame failed to decode (truncation, bad tag, length
    /// mismatch) — corrupt boundary transport, never a panic — or data
    /// entering the plan has a kind its schema does not declare
    /// ([`TypeError::KindMismatch`]).
    Wire(TypeError),
    /// A cluster host failed mid-run (worker panic, corrupt boundary
    /// frame, hung peer, nested execution error). Strict-mode
    /// distributed runs surface the first such failure instead of
    /// panicking the driver; partial-results runs collect them in the
    /// run report.
    Host(HostFailure),
}

/// What brought a cluster host down — the typed `cause` inside
/// [`HostFailure`].
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The host's worker thread panicked; the payload is the panic
    /// message (caught via `catch_unwind`, never propagated).
    Panic(String),
    /// A boundary frame from this host failed to decode — corruption
    /// or truncation on the wire.
    Decode(TypeError),
    /// The host's engine reported a nested execution error.
    Exec(Box<ExecError>),
    /// The peer neither produced nor accepted a frame within the
    /// configured send/recv timeout — a hung or stalled host, surfaced
    /// instead of deadlocking the run.
    Timeout {
        /// How long the observer waited before giving up, in
        /// milliseconds.
        waited_ms: u64,
    },
    /// The transport link to the host failed: connection refused or
    /// reset, a socket closed mid-frame, a handshake rejection, or a
    /// failure the remote process reported before dying. Only
    /// process-level transports (TCP / Unix sockets) produce this —
    /// in-process channels cannot lose a link.
    Link(String),
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "worker panicked: {msg}"),
            FailureCause::Decode(e) => write!(f, "boundary frame corrupt: {e}"),
            FailureCause::Exec(e) => write!(f, "execution failed: {e}"),
            FailureCause::Timeout { waited_ms } => {
                write!(f, "peer unresponsive for {waited_ms} ms")
            }
            FailureCause::Link(msg) => write!(f, "transport link failed: {msg}"),
        }
    }
}

/// One host's failure record: who failed, why, and how far it got.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFailure {
    /// The failing host (or, for a [`FailureCause::Timeout`], the host
    /// that *observed* the silence — the consumer end of the boundary).
    pub host: usize,
    /// The typed cause.
    pub cause: FailureCause,
    /// Tuples the host had processed when it failed (best effort: the
    /// worker advances this counter as it feeds its engine, so a panic
    /// or fault mid-batch reports the last consistent count).
    pub tuples_processed: u64,
}

impl fmt::Display for HostFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host {} failed after {} tuples: {}",
            self.host, self.tuples_processed, self.cause
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Expr(e) => write!(f, "expression error: {e}"),
            ExecError::BadPlan(msg) => write!(f, "plan not executable: {msg}"),
            ExecError::NotASource(id) => write!(f, "node {id} is not a source scan"),
            ExecError::Wire(e) => write!(f, "input refused: {e}"),
            ExecError::Host(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<HostFailure> for ExecError {
    fn from(f: HostFailure) -> Self {
        ExecError::Host(f)
    }
}

impl From<ExprError> for ExecError {
    fn from(e: ExprError) -> Self {
        ExecError::Expr(e)
    }
}

impl From<TypeError> for ExecError {
    fn from(e: TypeError) -> Self {
        ExecError::Wire(e)
    }
}

/// Result alias for this crate.
pub type ExecResult<T> = Result<T, ExecError>;
