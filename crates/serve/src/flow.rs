//! Flow selection shared by the CLI and the server: which ATPG flow,
//! fill policy and engine a request asks for, parsed strictly, and the
//! one function that runs it.
//!
//! `scap atpg --flow conventional --fill fill-1` and
//! `POST /v1/profile` with `flow=conventional&fill=fill-1` go through
//! the same [`FlowSpec::parse`], so an unknown value is an error on
//! both surfaces (exit code 2 on the command line, `400` on the wire)
//! instead of silently falling back to a default.

use crate::params::Args;
use scap::dft::FillPolicy;
use scap::tgen::EngineKind;
use scap::{flows, CaseStudy};

/// Which ATPG flow a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Random-fill conventional ATPG.
    Conventional,
    /// The paper's staged noise-aware flow.
    NoiseAware,
}

impl FlowKind {
    /// Parses a `flow` value; absent means the noise-aware flow.
    pub(crate) fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None | Some("noise-aware") => Ok(FlowKind::NoiseAware),
            Some("conventional") => Ok(FlowKind::Conventional),
            Some(other) => Err(format!(
                "flow expects 'conventional' or 'noise-aware', got '{other}'"
            )),
        }
    }

    /// The canonical name, as accepted by [`FlowKind::parse`].
    pub(crate) fn label(self) -> &'static str {
        match self {
            FlowKind::Conventional => "conventional",
            FlowKind::NoiseAware => "noise-aware",
        }
    }
}

/// Parses a `fill` value; absent means the flow's own default.
pub(crate) fn parse_fill(raw: Option<&str>) -> Result<Option<FillPolicy>, String> {
    match raw {
        None => Ok(None),
        Some("random-fill") | Some("random") => Ok(Some(FillPolicy::Random)),
        Some("fill-0") => Ok(Some(FillPolicy::Zero)),
        Some("fill-1") => Ok(Some(FillPolicy::One)),
        Some("fill-adjacent") => Ok(Some(FillPolicy::Adjacent)),
        Some(other) => Err(format!(
            "fill expects random-fill|fill-0|fill-1|fill-adjacent, got '{other}'"
        )),
    }
}

/// Parses an `engine` value; absent means PODEM.
pub(crate) fn parse_engine(raw: Option<&str>) -> Result<EngineKind, String> {
    match raw {
        None => Ok(EngineKind::Podem),
        Some(s) => EngineKind::parse(s)
            .ok_or_else(|| format!("engine expects podem|sat|hybrid, got '{s}'")),
    }
}

/// The canonical name of a fill policy.
pub(crate) fn fill_label(fill: FillPolicy) -> &'static str {
    match fill {
        FillPolicy::Random => "random-fill",
        FillPolicy::Zero => "fill-0",
        FillPolicy::One => "fill-1",
        FillPolicy::Adjacent => "fill-adjacent",
    }
}

/// A fully specified flow request: the `flow`, `fill` and `engine`
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Which flow to run.
    pub kind: FlowKind,
    /// Fill policy override (the flow's default otherwise).
    pub fill: Option<FillPolicy>,
    /// Primary ATPG engine (`podem`, `sat` or `hybrid`).
    pub engine: EngineKind,
}

impl FlowSpec {
    /// Reads and validates `flow`, `fill` and `engine` from `args`.
    pub fn parse(args: &Args) -> Result<Self, String> {
        Ok(FlowSpec {
            kind: FlowKind::parse(args.value("flow")?)?,
            fill: parse_fill(args.value("fill")?)?,
            engine: parse_engine(args.value("engine")?)?,
        })
    }

    /// The fill the flow actually runs: the override, else random fill
    /// for the conventional flow and fill-0 for the noise-aware one.
    pub(crate) fn effective_fill(&self) -> FillPolicy {
        self.fill.unwrap_or(match self.kind {
            FlowKind::Conventional => FillPolicy::Random,
            FlowKind::NoiseAware => FillPolicy::Zero,
        })
    }

    /// Canonical cache-key fragment. The fill keys on its *effective*
    /// policy: an explicit `fill=fill-0` and the noise-aware flow's
    /// default are the same computation, so they share an entry.
    pub(crate) fn key_part(&self) -> String {
        format!(
            "{}|{}|{}",
            self.kind.label(),
            fill_label(self.effective_fill()),
            self.engine.label()
        )
    }

    /// Runs the flow on `study`.
    pub fn run(&self, study: &CaseStudy) -> flows::FlowResult {
        let config = flows::flow_atpg_config_with_engine(self.effective_fill(), self.engine);
        match self.kind {
            FlowKind::Conventional => flows::conventional_with(study, config),
            FlowKind::NoiseAware => {
                flows::noise_aware_with(study, config, &flows::paper_stages(study))
            }
        }
    }
}
