package core

import "repro/internal/runtime"

// SeqMachine exposes the sequence machine type to the external tests, so
// they can take weak pointers into a run's machine slab.
type SeqMachine = seqMachine

// MachineMemory returns the shared memory of a machine built by Sequence,
// Simple or Consecutive.
func MachineMemory(m runtime.Machine) any { return m.(*seqMachine).mem }
