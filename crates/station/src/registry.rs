//! Per-session chip registry and the wire-spec → simulation-config
//! conversions.
//!
//! The conversions are `pub` (not just `pub(crate)`) deliberately: the
//! loopback tests and the bench harness build their *in-process*
//! reference chips through the very same functions the server uses, so
//! "bit-identical to a direct `record()` call" is checked against the
//! exact configuration the wire spec produces.

use crate::session::error_reply;
use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_core::{ChipError, HealthMonitor, YieldReport};
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_link::{
    ChipId, ChipKind, CultureSpec, DnaChipSpec, ErrorCode, FaultKindSpec, FaultPlanSpec,
    FaultTargetSpec, Message, NeuroChipSpec, SerialLinkSummary, YieldSummary,
};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_units::{Ampere, Hertz, Seconds, Volt};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Largest array the station will simulate (a 2048×2048 die), so a
/// hostile spec cannot demand an absurd allocation.
pub const MAX_PIXELS: usize = 1 << 22;

/// Builds a neuro-chip configuration from its wire spec. Zero /
/// non-finite fields select the paper defaults (128×128, 16 channels,
/// 2 kHz).
pub fn neuro_config_from_spec(spec: &NeuroChipSpec) -> Result<NeuroChipConfig, ChipError> {
    let mut config = NeuroChipConfig::default();
    if spec.rows != 0 || spec.cols != 0 {
        let rows = usize::from(spec.rows.max(1));
        let cols = usize::from(spec.cols.max(1));
        config.geometry = ArrayGeometry::new(rows, cols, config.geometry.pitch())?;
    }
    if spec.channels != 0 {
        config.channels = usize::from(spec.channels);
    }
    if spec.frame_rate_hz.is_finite() && spec.frame_rate_hz > 0.0 {
        config.frame_rate = Hertz::new(spec.frame_rate_hz);
    }
    config.seed = spec.seed;
    Ok(config)
}

/// Builds a DNA-chip configuration from its wire spec. Zero / non-finite
/// fields select the paper defaults (16×8, 10 s frames).
pub fn dna_config_from_spec(spec: &DnaChipSpec) -> Result<DnaChipConfig, ChipError> {
    let mut config = DnaChipConfig::default();
    if spec.rows != 0 || spec.cols != 0 {
        let rows = usize::from(spec.rows.max(1));
        let cols = usize::from(spec.cols.max(1));
        config.geometry = ArrayGeometry::new(rows, cols, config.geometry.pitch())?;
    }
    if spec.frame_time_s.is_finite() && spec.frame_time_s > 0.0 {
        config.frame_time = Seconds::new(spec.frame_time_s);
    }
    config.seed = spec.seed;
    Ok(config)
}

/// Builds the simulated culture a neuro stream records from. Fully
/// deterministic in `spec.seed`, which is what makes the streamed frames
/// reproducible by an in-process `record()` with the same spec.
#[must_use]
pub fn culture_from_spec(spec: &CultureSpec) -> Culture {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut config = CultureConfig::default();
    if spec.neuron_count != 0 {
        config.neuron_count = spec.neuron_count as usize;
    }
    let mut culture = Culture::random(&config, &mut rng);
    let duration = if spec.spike_duration_s.is_finite() && spec.spike_duration_s > 0.0 {
        spec.spike_duration_s
    } else {
        1.0
    };
    culture.generate_spikes(Seconds::new(duration), &mut rng);
    culture
}

fn fault_kind_from_spec(kind: &FaultKindSpec) -> FaultKind {
    match kind {
        FaultKindSpec::DeadPixel => FaultKind::DeadPixel,
        FaultKindSpec::StuckCount { count } => FaultKind::StuckCount { count: *count },
        FaultKindSpec::LeakyElectrode { leakage_a } => FaultKind::LeakyElectrode {
            leakage: Ampere::new(*leakage_a),
        },
        FaultKindSpec::ComparatorDrift { offset_v } => FaultKind::ComparatorDrift {
            offset: Volt::new(*offset_v),
        },
        FaultKindSpec::ComparatorStuck { high } => FaultKind::ComparatorStuck { high: *high },
        FaultKindSpec::DacSaturation { limit } => FaultKind::DacSaturation { limit: *limit },
        FaultKindSpec::GainClipping { limit_v } => FaultKind::GainClipping {
            limit: Volt::new(*limit_v),
        },
        FaultKindSpec::ChannelLoss { channel } => FaultKind::ChannelLoss {
            channel: *channel as usize,
        },
        FaultKindSpec::SerialBitErrors { rate } => FaultKind::SerialBitErrors { rate: *rate },
    }
}

/// Rebuilds a `bsa_faults::InjectionPlan` from its wire form. Chip-global
/// kinds (channel loss, serial bit errors) route through the dedicated
/// builder calls whatever their declared target; a `Global` target with a
/// pixel-level kind becomes an array-wide fault at density 1.
#[must_use]
pub fn injection_plan_from_spec(spec: &FaultPlanSpec) -> InjectionPlan {
    let mut plan = InjectionPlan::new(spec.seed);
    for entry in &spec.entries {
        let kind = fault_kind_from_spec(&entry.kind);
        plan = match (&entry.target, kind) {
            (_, FaultKind::ChannelLoss { channel }) => plan.lose_channel(channel),
            (_, FaultKind::SerialBitErrors { rate }) => plan.serial_bit_errors(rate),
            (FaultTargetSpec::Pixel { row, col }, kind) => {
                plan.at(usize::from(*row), usize::from(*col), kind)
            }
            (FaultTargetSpec::ArrayWide { density }, kind) => plan.array_wide(*density, kind),
            (FaultTargetSpec::Global, kind) => plan.array_wide(1.0, kind),
        };
    }
    plan
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Converts a chip's `YieldReport` into its wire summary.
#[must_use]
pub fn yield_summary(report: &YieldReport) -> YieldSummary {
    YieldSummary {
        total_pixels: as_u32(report.total_pixels),
        healthy: as_u32(report.healthy),
        out_of_family: as_u32(report.out_of_family),
        dead: as_u32(report.dead),
        lost_channels: report.lost_channels.iter().map(|&c| as_u32(c)).collect(),
        total_channels: as_u32(report.total_channels),
        injected: as_u32(report.injected.values().sum::<usize>()),
        serial: SerialLinkSummary {
            clean_words: report.serial.clean_words as u64,
            recovered_words: report.serial.recovered_words as u64,
            unrecovered_words: report.serial.unrecovered_words as u64,
            rereads: report.serial.rereads as u64,
        },
        degradation: match report.degradation {
            bsa_core::DegradationMode::FullPerformance => {
                bsa_link::DegradationSummary::FullPerformance
            }
            bsa_core::DegradationMode::Degraded => bsa_link::DegradationSummary::Degraded,
            bsa_core::DegradationMode::Unusable => bsa_link::DegradationSummary::Unusable,
        },
    }
}

/// One attached chip, with the DNA chip carrying its configured sample.
#[derive(Debug)]
pub(crate) enum Chip {
    Dna {
        chip: Box<DnaChip>,
        sample: SampleMix,
    },
    Neuro(Box<NeuroChip>),
}

impl Chip {
    pub(crate) fn kind(&self) -> ChipKind {
        match self {
            Self::Dna { .. } => ChipKind::Dna,
            Self::Neuro(_) => ChipKind::Neuro,
        }
    }

    pub(crate) fn geometry(&self) -> ArrayGeometry {
        match self {
            Self::Dna { chip, .. } => chip.geometry(),
            Self::Neuro(chip) => chip.config().geometry,
        }
    }

    /// The Debug rendering of the resolved configuration: the spec
    /// snapshot a recording stores.
    pub(crate) fn spec(&self) -> String {
        match self {
            Self::Dna { chip, .. } => format!("{:?}", chip.config()),
            Self::Neuro(chip) => format!("{:?}", chip.config()),
        }
    }

    pub(crate) fn health(&self) -> &HealthMonitor {
        match self {
            Self::Dna { chip, .. } => chip.health(),
            Self::Neuro(chip) => chip.health(),
        }
    }

    pub(crate) fn yield_report(&self) -> YieldReport {
        match self {
            Self::Dna { chip, .. } => chip.yield_report(),
            Self::Neuro(chip) => chip.yield_report(),
        }
    }

    /// Compiles `plan` against the chip's geometry and applies it.
    pub(crate) fn inject_faults(&mut self, plan: &InjectionPlan) -> Result<(), ChipError> {
        let g = self.geometry();
        let faults = plan.compile(g.rows(), g.cols());
        match self {
            Self::Dna { chip, .. } => chip.inject_faults(&faults),
            Self::Neuro(chip) => chip.inject_faults(&faults),
        }
    }
}

/// Session-scoped chip table. A `Vec` keyed by id: sessions hold a
/// handful of chips, and iteration order stays deterministic.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    next_id: ChipId,
    chips: Vec<(ChipId, Chip)>,
}

impl Registry {
    pub(crate) fn attach(&mut self, chip: Chip) -> ChipId {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.chips.push((id, chip));
        id
    }

    pub(crate) fn get_mut(&mut self, id: ChipId) -> Option<&mut Chip> {
        self.chips
            .iter_mut()
            .find(|(cid, _)| *cid == id)
            .map(|(_, chip)| chip)
    }

    /// Looks up a chip; a stale handle gets the `UnknownChip` reply.
    pub(crate) fn chip(&mut self, id: ChipId) -> Result<&mut Chip, Message> {
        self.get_mut(id)
            .ok_or_else(|| error_reply(ErrorCode::UnknownChip, format!("no chip {id}")))
    }

    /// Looks up a DNA chip and its sample; a neuro chip gets the
    /// `WrongChipKind` reply.
    pub(crate) fn dna(&mut self, id: ChipId) -> Result<(&mut DnaChip, &mut SampleMix), Message> {
        match self.chip(id)? {
            Chip::Dna { chip, sample } => Ok((chip, sample)),
            Chip::Neuro(_) => Err(error_reply(
                ErrorCode::WrongChipKind,
                "assays run on DNA chips".into(),
            )),
        }
    }

    /// Looks up a neuro chip; a DNA chip gets the `WrongChipKind` reply.
    pub(crate) fn neuro(&mut self, id: ChipId) -> Result<&mut NeuroChip, Message> {
        match self.chip(id)? {
            Chip::Neuro(chip) => Ok(chip),
            Chip::Dna { .. } => Err(error_reply(
                ErrorCode::WrongChipKind,
                "streams run on neuro chips".into(),
            )),
        }
    }

    pub(crate) fn detach(&mut self, id: ChipId) -> bool {
        let before = self.chips.len();
        self.chips.retain(|(cid, _)| *cid != id);
        self.chips.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_link::FaultEntrySpec;

    #[test]
    fn default_specs_select_paper_geometry() {
        let neuro = neuro_config_from_spec(&NeuroChipSpec {
            rows: 0,
            cols: 0,
            channels: 0,
            seed: 7,
            frame_rate_hz: f64::NAN,
        })
        .unwrap();
        assert_eq!(neuro.geometry.rows(), 128);
        assert_eq!(neuro.geometry.cols(), 128);
        assert_eq!(neuro.channels, 16);
        assert_eq!(neuro.seed, 7);

        let dna = dna_config_from_spec(&DnaChipSpec {
            rows: 0,
            cols: 0,
            seed: 9,
            frame_time_s: 0.0,
        })
        .unwrap();
        assert_eq!(dna.geometry.rows(), 8);
        assert_eq!(dna.geometry.cols(), 16);
        assert_eq!(dna.seed, 9);
    }

    #[test]
    fn culture_from_spec_is_deterministic() {
        let spec = CultureSpec {
            seed: 42,
            neuron_count: 10,
            spike_duration_s: 0.05,
        };
        let a = culture_from_spec(&spec);
        let b = culture_from_spec(&spec);
        assert_eq!(a.neurons().len(), b.neurons().len());
    }

    #[test]
    fn plan_spec_compiles_like_the_builder() {
        let spec = FaultPlanSpec {
            seed: 5,
            entries: vec![
                FaultEntrySpec {
                    target: FaultTargetSpec::Pixel { row: 1, col: 2 },
                    kind: FaultKindSpec::DeadPixel,
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::ChannelLoss { channel: 3 },
                },
            ],
        };
        let compiled = injection_plan_from_spec(&spec).compile(8, 8);
        let reference = InjectionPlan::new(5)
            .at(1, 2, FaultKind::DeadPixel)
            .lose_channel(3)
            .compile(8, 8);
        assert_eq!(compiled.lost_channels(), reference.lost_channels());
        assert!(compiled.at(1, 2).dead);
        assert_eq!(compiled.at(1, 2).dead, reference.at(1, 2).dead);
    }

    #[test]
    fn registry_attach_get_detach() {
        let mut reg = Registry::default();
        let config = dna_config_from_spec(&DnaChipSpec {
            rows: 2,
            cols: 2,
            seed: 1,
            frame_time_s: 0.1,
        })
        .unwrap();
        let chip = DnaChip::new(config).unwrap();
        let id = reg.attach(Chip::Dna {
            chip: Box::new(chip),
            sample: SampleMix::new(),
        });
        assert!(reg.get_mut(id).is_some());
        assert!(reg.detach(id));
        assert!(!reg.detach(id));
        assert!(reg.get_mut(id).is_none());
    }
}
