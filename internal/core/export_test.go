package core

import "repro/internal/runtime"

// SeqMachine exposes the sequence machine type to the external tests, so
// they can take weak pointers into a run's machine slab.
type SeqMachine = seqMachine

// MachineMemory returns the shared memory of a machine built by any
// template.
func MachineMemory(m runtime.Machine) any { return m.(*seqMachine).ctx.mem }

// MachineStages returns the stage list of a machine built by any template.
func MachineStages(m runtime.Machine) []Stage { return *m.(*seqMachine).stages }
