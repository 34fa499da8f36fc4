//! Diagnostics core: severities, spans, findings and the report.

use scap_netlist::{BlockId, ClockId, FlopId, GateId, NetId};
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects the exit code.
    Info,
    /// Suspicious but not provably broken; fails the gate under
    /// `--deny warn`.
    Warn,
    /// A violated invariant the flow depends on.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which of the two supply meshes a grid finding refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MeshKind {
    /// The VDD (supply) network.
    Vdd,
    /// The VSS (ground) network.
    Vss,
}

impl MeshKind {
    /// Upper-case mesh name.
    pub fn label(self) -> &'static str {
        match self {
            MeshKind::Vdd => "VDD",
            MeshKind::Vss => "VSS",
        }
    }
}

/// What a finding points at: the offending design object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Span {
    /// The design as a whole (no narrower location exists).
    Design,
    /// A net.
    Net(NetId),
    /// A combinational gate.
    Gate(GateId),
    /// A flip-flop.
    Flop(FlopId),
    /// A hierarchical block.
    Block(BlockId),
    /// A clock domain.
    Clock(ClockId),
    /// A scan chain, by chain number.
    Chain(u16),
    /// A clock-tree buffer, by buffer index.
    Buffer(u32),
    /// A power-mesh node.
    GridNode(MeshKind, u32),
    /// A test pattern, by application-order index.
    Pattern(usize),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Design => write!(f, "design"),
            Span::Net(id) => write!(f, "net {id}"),
            Span::Gate(id) => write!(f, "gate {id}"),
            Span::Flop(id) => write!(f, "flop {id}"),
            Span::Block(id) => write!(f, "block {id}"),
            Span::Clock(id) => write!(f, "clock {id}"),
            Span::Chain(c) => write!(f, "chain {c}"),
            Span::Buffer(b) => write!(f, "clock buffer {b}"),
            Span::GridNode(mesh, n) => write!(f, "{} node {n}", mesh.label()),
            Span::Pattern(p) => write!(f, "pattern {p}"),
        }
    }
}

/// One rule violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `"NET001"`.
    pub rule: &'static str,
    /// Severity of the violation.
    pub severity: Severity,
    /// The offending object.
    pub span: Span,
    /// Human-readable explanation with concrete values.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(rule: &'static str, severity: Severity, span: Span, message: String) -> Self {
        Finding {
            rule,
            severity,
            span,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity, self.rule, self.span, self.message
        )
    }
}

/// Per-rule execution record, one per registered rule whether or not it
/// produced findings.
#[derive(Clone, Debug)]
pub struct RuleStat {
    /// Rule identifier.
    pub rule: &'static str,
    /// Findings this rule produced.
    pub findings: usize,
    /// Wall-clock the rule spent, microseconds.
    pub micros: u64,
}

/// The outcome of one lint run: findings in stable order plus per-rule
/// statistics.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by `(rule, span, message)` — stable across
    /// runs and thread counts.
    pub findings: Vec<Finding>,
    /// One entry per rule run, sorted by rule id.
    pub rules: Vec<RuleStat>,
}

impl LintReport {
    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Warn-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info in {} rule(s)\n",
            self.errors(),
            self.warnings(),
            self.count(Severity::Info),
            self.rules.len()
        ));
        out
    }

    /// Renders the machine-readable report as one compact JSON object
    /// (the escaping and builders live in [`scap_obs::json`]). Schema:
    ///
    /// ```json
    /// {"summary": {"errors": 0, "warnings": 0, "info": 0, "rules_run": 19},
    ///  "findings": [{"rule": "NET001", "severity": "error",
    ///                "span": "net n12", "message": "..."}],
    ///  "rules": [{"rule": "NET001", "findings": 0, "micros": 12}]}
    /// ```
    pub fn render_json(&self) -> String {
        use scap_obs::json::{Arr, Obj};
        let mut summary = Obj::new();
        summary
            .u64("errors", self.errors() as u64)
            .u64("warnings", self.warnings() as u64)
            .u64("info", self.count(Severity::Info) as u64)
            .u64("rules_run", self.rules.len() as u64);
        let mut findings = Arr::new();
        for f in &self.findings {
            let mut o = Obj::new();
            o.str("rule", f.rule)
                .str("severity", f.severity.label())
                .str("span", &f.span.to_string())
                .str("message", &f.message);
            findings.raw(&o.finish());
        }
        let mut rules = Arr::new();
        for r in &self.rules {
            let mut o = Obj::new();
            o.str("rule", r.rule)
                .u64("findings", r.findings as u64)
                .u64("micros", r.micros);
            rules.raw(&o.finish());
        }
        let mut root = Obj::new();
        root.raw("summary", &summary.finish())
            .raw("findings", &findings.finish())
            .raw("rules", &rules.finish());
        root.finish()
    }

    /// [`LintReport::render_json`] re-indented for human readers (the
    /// CLI's `--format json` output).
    pub fn render_json_pretty(&self) -> String {
        scap_obs::json::pretty(&self.render_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn finding_renders_with_rule_and_span() {
        let f = Finding::new(
            "NET001",
            Severity::Error,
            Span::Net(NetId::new(12)),
            "no driver".into(),
        );
        assert_eq!(f.to_string(), "error: [NET001] net n12: no driver");
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let f = Finding::new(
            "NET001",
            Severity::Error,
            Span::Design,
            "a\"b\\c\nd\u{1}".into(),
        );
        let report = LintReport {
            findings: vec![f],
            rules: vec![],
        };
        let json = report.render_json();
        assert!(json.contains("a\\\"b\\\\c\\nd\\u0001"), "{json}");
    }

    #[test]
    fn empty_report_renders_valid_shapes() {
        let r = LintReport::default();
        assert!(r.render_text().contains("0 error(s)"));
        let json = r.render_json();
        assert!(json.contains("\"findings\":[]"));
        assert!(json.contains("\"rules\":[]"));
        assert!(r.render_json_pretty().ends_with("}\n"));
    }
}
