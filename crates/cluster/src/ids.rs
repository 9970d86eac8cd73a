//! Strongly-typed identifiers for cluster resources.

use std::fmt;

/// Identifier of a physical machine (training node) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl MachineId {
    /// Zero-based index of this machine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine-{}", self.0)
    }
}

/// Identifier of a single GPU: the machine it lives on plus its local slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId {
    /// Hosting machine.
    pub machine: MachineId,
    /// Local slot index within the machine (0..gpus_per_machine).
    pub slot: u8,
}

impl GpuId {
    /// Creates a GPU id from machine and slot.
    pub fn new(machine: MachineId, slot: u8) -> Self {
        GpuId { machine, slot }
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/gpu{}", self.machine, self.slot)
    }
}

/// Identifier of a network switch. Machines are grouped under leaf switches;
/// a switch failure affects every machine under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "switch-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(MachineId(3).to_string(), "machine-3");
        assert_eq!(GpuId::new(MachineId(3), 7).to_string(), "machine-3/gpu7");
        assert_eq!(SwitchId(1).to_string(), "switch-1");
    }

    #[test]
    fn ordering_is_by_machine_then_slot() {
        let a = GpuId::new(MachineId(0), 7);
        let b = GpuId::new(MachineId(1), 0);
        assert!(a < b);
        assert!(GpuId::new(MachineId(1), 0) < GpuId::new(MachineId(1), 1));
    }

    #[test]
    fn machine_index() {
        assert_eq!(MachineId(17).index(), 17);
    }
}
