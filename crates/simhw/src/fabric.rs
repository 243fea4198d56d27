//! Multi-card platform state.
//!
//! Holds the mutable, per-card runtime state of a simulation: the active
//! partition plan of each card. The paper's
//! Sec. VI experiments run one logical stream pool over several Phis; the
//! stream executor asks this type which card a partition lives on and what
//! its geometry is.

use crate::calibrate::PlatformConfig;
use crate::device::DeviceId;
use crate::memory::MemError;
use crate::partition::{PartitionError, PartitionPlan};

/// Mutable state for one card.
#[derive(Debug)]
pub struct CardState {
    /// Which card this is.
    pub id: DeviceId,
    /// Active partition plan, once a context initialized the card.
    pub plan: Option<PartitionPlan>,
}

/// Errors from platform-level operations.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricError {
    /// Device id out of range for this platform.
    NoSuchDevice(DeviceId),
    /// Partitioning failed.
    Partition(PartitionError),
    /// Memory operation failed.
    Memory(MemError),
    /// Operation needs a partition plan but the card was never initialized.
    NotInitialized(DeviceId),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::NoSuchDevice(d) => write!(f, "no such device {d}"),
            FabricError::Partition(e) => write!(f, "partitioning failed: {e}"),
            FabricError::Memory(e) => write!(f, "device memory error: {e}"),
            FabricError::NotInitialized(d) => write!(f, "device {d} not initialized"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<PartitionError> for FabricError {
    fn from(e: PartitionError) -> Self {
        FabricError::Partition(e)
    }
}

impl From<MemError> for FabricError {
    fn from(e: MemError) -> Self {
        FabricError::Memory(e)
    }
}

/// The runtime state of all cards on the platform.
#[derive(Debug)]
pub struct SimPlatform {
    cfg: PlatformConfig,
    cards: Vec<CardState>,
}

impl SimPlatform {
    /// Instantiate from a validated configuration.
    pub fn new(cfg: PlatformConfig) -> Result<SimPlatform, String> {
        cfg.validate()?;
        let cards = (0..cfg.device_count)
            .map(|i| CardState {
                id: DeviceId(i),
                plan: None,
            })
            .collect();
        Ok(SimPlatform { cfg, cards })
    }

    /// The static configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Number of cards.
    pub fn device_count(&self) -> usize {
        self.cards.len()
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.cards.iter().map(|c| c.id)
    }

    fn card(&self, dev: DeviceId) -> Result<&CardState, FabricError> {
        self.cards.get(dev.0).ok_or(FabricError::NoSuchDevice(dev))
    }

    fn card_mut(&mut self, dev: DeviceId) -> Result<&mut CardState, FabricError> {
        self.cards
            .get_mut(dev.0)
            .ok_or(FabricError::NoSuchDevice(dev))
    }

    /// Install an equal-split partition plan with `partitions` groups on
    /// `dev`, replacing any previous plan.
    pub fn init_partitions(
        &mut self,
        dev: DeviceId,
        partitions: usize,
    ) -> Result<&PartitionPlan, FabricError> {
        let spec = self.cfg.device.clone();
        let card = self.card_mut(dev)?;
        card.plan = Some(PartitionPlan::equal_split(&spec, partitions)?);
        Ok(card.plan.as_ref().expect("just installed"))
    }

    /// The active plan on `dev`.
    pub fn plan(&self, dev: DeviceId) -> Result<&PartitionPlan, FabricError> {
        self.card(dev)?
            .plan
            .as_ref()
            .ok_or(FabricError::NotInitialized(dev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::PlatformConfig;

    #[test]
    fn platform_creates_one_card_per_device() {
        let p = SimPlatform::new(PlatformConfig::phi_31sp_multi(3)).unwrap();
        assert_eq!(p.device_count(), 3);
        assert_eq!(p.devices().count(), 3);
    }

    #[test]
    fn partitions_are_per_card() {
        let mut p = SimPlatform::new(PlatformConfig::phi_31sp_multi(2)).unwrap();
        p.init_partitions(DeviceId(0), 4).unwrap();
        p.init_partitions(DeviceId(1), 8).unwrap();
        assert_eq!(p.plan(DeviceId(0)).unwrap().count(), 4);
        assert_eq!(p.plan(DeviceId(1)).unwrap().count(), 8);
    }

    #[test]
    fn uninitialized_card_has_no_plan() {
        let p = SimPlatform::new(PlatformConfig::phi_31sp()).unwrap();
        assert_eq!(
            p.plan(DeviceId(0)),
            Err(FabricError::NotInitialized(DeviceId(0)))
        );
    }

    #[test]
    fn bad_device_id_rejected() {
        let mut p = SimPlatform::new(PlatformConfig::phi_31sp()).unwrap();
        assert!(matches!(
            p.init_partitions(DeviceId(5), 2),
            Err(FabricError::NoSuchDevice(_))
        ));
        assert!(matches!(
            p.plan(DeviceId(5)),
            Err(FabricError::NoSuchDevice(_))
        ));
    }

    #[test]
    fn partition_error_propagates() {
        let mut p = SimPlatform::new(PlatformConfig::phi_31sp()).unwrap();
        assert!(matches!(
            p.init_partitions(DeviceId(0), 0),
            Err(FabricError::Partition(_))
        ));
    }
}
