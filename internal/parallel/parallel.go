// Package parallel describes how an LLM is mapped onto a system: the
// data/tensor/pipeline/sequence parallelism degrees (§1.3), microbatching,
// and the pipeline schedule (GPipe, PipeDream-Flush/1F1B, interleaved 1F1B
// — §3.2) with its bubble and in-flight-microbatch models.
package parallel

import "fmt"

// Schedule selects the pipeline-parallel execution order.
type Schedule int

const (
	// GPipe runs all forwards then all backwards; simple but stores every
	// microbatch's activations.
	GPipe Schedule = iota
	// OneFOneB is PipeDream-Flush: same bubble as GPipe but at most p
	// microbatches in flight.
	OneFOneB
	// Interleaved1F1B assigns v model chunks per device, dividing the
	// bubble by v at the cost of more communication (§3.2).
	Interleaved1F1B
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	case Interleaved1F1B:
		return "interleaved-1f1b"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Mapping is a complete parallelization strategy.
type Mapping struct {
	// DP, TP, PP are the data/tensor/pipeline parallel degrees.
	DP, TP, PP int
	// SP enables sequence parallelism across the TP group.
	SP bool
	// Microbatch is the per-device microbatch size b in sequences.
	Microbatch int
	// Schedule is the pipeline schedule; ignored when PP == 1.
	Schedule Schedule
	// VirtualStages is the interleaving factor v (model chunks per
	// device); meaningful only for Interleaved1F1B, else treated as 1.
	VirtualStages int
}

// Devices returns the total device count DP×TP×PP.
func (m Mapping) Devices() int { return m.DP * m.TP * m.PP }

// chunks returns the effective interleaving factor.
func (m Mapping) chunks() int {
	if m.Schedule == Interleaved1F1B && m.VirtualStages > 1 {
		return m.VirtualStages
	}
	return 1
}

// fault names the first rule a mapping breaks; faultNone when it breaks
// none.
type fault int

const (
	faultNone fault = iota
	faultDegrees
	faultMicrobatch
	faultLayers
	faultBatch
)

// check is the mapping rule against a model's layer count and the global
// batch size, without building an error: positive degrees and
// microbatch, layers divisible into the pipeline chunks and the batch
// into DP × microbatch. Valid reads its verdict, Validate formats it.
func (m Mapping) check(layers, globalBatch int) fault {
	switch {
	case m.DP <= 0 || m.TP <= 0 || m.PP <= 0:
		return faultDegrees
	case m.Microbatch <= 0:
		return faultMicrobatch
	case layers%(m.PP*m.chunks()) != 0:
		return faultLayers
	case globalBatch%(m.DP*m.Microbatch) != 0:
		return faultBatch
	}
	return faultNone
}

// Valid reports whether Validate accepts the mapping, without allocating.
func (m Mapping) Valid(layers, globalBatch int) bool {
	return m.check(layers, globalBatch) == faultNone
}

// Validate checks the mapping against a model's layer count and the global
// batch size.
func (m Mapping) Validate(layers, globalBatch int) error {
	switch m.check(layers, globalBatch) {
	case faultDegrees:
		return fmt.Errorf("parallel: non-positive degrees %d-%d-%d", m.DP, m.TP, m.PP)
	case faultMicrobatch:
		return fmt.Errorf("parallel: non-positive microbatch %d", m.Microbatch)
	case faultLayers:
		return fmt.Errorf("parallel: %d layers not divisible into %d pipeline chunks", layers, m.PP*m.chunks())
	case faultBatch:
		return fmt.Errorf("parallel: batch %d not divisible by DP %d x microbatch %d", globalBatch, m.DP, m.Microbatch)
	}
	return nil
}

// Microbatches returns m, the microbatch count per pipeline per iteration.
func (m Mapping) Microbatches(globalBatch int) int {
	return globalBatch / (m.DP * m.Microbatch)
}

// LayersPerDevice returns the transformer layers resident on one device.
func (m Mapping) LayersPerDevice(layers int) int { return layers / m.PP }

// BubbleSlots returns the pipeline bubble expressed in units of one
// microbatch's (forward+backward) time: p-1 for GPipe and 1F1B,
// (p-1)/v for the interleaved schedule.
func (m Mapping) BubbleSlots() float64 {
	if m.PP <= 1 {
		return 0
	}
	return float64(m.PP-1) / float64(m.chunks())
}

// BubbleFraction returns the ideal bubble fraction
// bubble/(m + bubble) for a batch of nMicro microbatches.
func (m Mapping) BubbleFraction(nMicro int) float64 {
	b := m.BubbleSlots()
	return b / (float64(nMicro) + b)
}

// InFlight returns how many microbatches' activations the first (worst)
// pipeline stage holds simultaneously — the activation-memory multiplier.
func (m Mapping) InFlight(nMicro int) float64 {
	if m.PP <= 1 {
		return float64(min(nMicro, 1)) // single stage runs one microbatch at a time
	}
	switch m.Schedule {
	case GPipe:
		return float64(nMicro)
	case Interleaved1F1B:
		p, v := float64(m.PP), float64(m.chunks())
		inFlight := p * (1 + (p-1)/(p*v))
		if f := float64(nMicro); f < inFlight {
			return f
		}
		return inFlight
	default: // 1F1B
		return float64(min(nMicro, m.PP))
	}
}

// P2PTransfersPerMicrobatch returns how many inter-stage activation
// transfers one microbatch makes in each direction (forward or backward):
// the stage boundaries crossed, counted per device chunk.
func (m Mapping) P2PTransfersPerMicrobatch() int {
	if m.PP <= 1 {
		return 0
	}
	return (m.PP - 1) * m.chunks()
}

// String renders the mapping in the paper's DP-TP-PP-SP notation.
func (m Mapping) String() string {
	sp := 1
	if m.SP {
		sp = m.TP
	}
	s := fmt.Sprintf("%d-%d-%d-%d", m.DP, m.TP, m.PP, sp)
	if m.PP > 1 {
		s += " (" + m.Schedule.String() + ")"
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
