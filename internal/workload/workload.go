// Package workload synthesizes the I/O kernels the paper evaluates with:
//
//   - VPIC-IO: each MPI rank writes eight float32 properties per particle
//     (32 bytes/particle, 8M particles per rank = 256 MB per time step),
//     checkpoint-style, write-only.
//   - BD-CATS-IO: the companion analysis kernel that reads the particle
//     properties back for parallel clustering.
//   - HDF5-style micro-benchmarks: every rank writes/reads an independent
//     contiguous block of a shared file.
//
// Buffers carry particle-physics-like statistics (gamma-distributed
// energies, normal velocities) so the Input Analyzer and the codecs see
// realistic float data; for scaled runs only sizes and attributes are
// generated.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"hcompress/internal/analyzer"
	"hcompress/internal/h5lite"
	"hcompress/internal/stats"
)

// VPICConfig describes a VPIC-IO run.
type VPICConfig struct {
	Ranks             int
	Timesteps         int
	ParticlesPerRank  int // paper: 8 << 20
	BytesPerParticle  int // paper: 32 (8 float32 properties)
	ComputeSecPerStep float64
}

// PaperVPIC returns the configuration of §V-C1 scaled by ranks.
func PaperVPIC(ranks, timesteps int) VPICConfig {
	return VPICConfig{
		Ranks:             ranks,
		Timesteps:         timesteps,
		ParticlesPerRank:  8 << 20,
		BytesPerParticle:  32,
		ComputeSecPerStep: 60, // the paper's injected compute kernel interval
	}
}

// StepBytesPerRank is the checkpoint size each rank writes per time step.
func (c VPICConfig) StepBytesPerRank() int64 {
	return int64(c.ParticlesPerRank) * int64(c.BytesPerParticle)
}

// TotalBytes is the full run's output volume.
func (c VPICConfig) TotalBytes() int64 {
	return c.StepBytesPerRank() * int64(c.Ranks) * int64(c.Timesteps)
}

// Attr returns the data attributes of a VPIC checkpoint buffer without
// generating it (scaled/modeled runs). VPIC particle properties are
// float32 with heavy-tailed energy components: gamma.
func (c VPICConfig) Attr() analyzer.Result {
	return analyzer.Result{
		Type: stats.TypeFloat,
		Dist: stats.Gamma,
		Size: int(c.StepBytesPerRank()),
	}
}

// TaskKey names a rank's checkpoint for one step.
func TaskKey(prefix string, rank, step int) string {
	return fmt.Sprintf("%s/r%d/t%d", prefix, rank, step)
}

// particleProperties are VPIC's eight per-particle float32 fields.
var particleProperties = []struct {
	name string
	dist stats.Dist
}{
	{"x", stats.Uniform}, {"y", stats.Uniform}, {"z", stats.Uniform},
	{"ux", stats.Normal}, {"uy", stats.Normal}, {"uz", stats.Normal},
	{"energy", stats.Gamma}, {"id", stats.Exponential},
}

// GenStepBuffer materializes one rank's checkpoint for one step at a
// reduced particle count (nParticles), as an h5lite container mirroring
// VPIC-IO's HDF5 layout: eight float32 datasets of nParticles each.
func (c VPICConfig) GenStepBuffer(rank, step, nParticles int) ([]byte, error) {
	f := &h5lite.File{}
	seedBase := int64(rank)*1e6 + int64(step)*1e3
	for pi, prop := range particleProperties {
		rng := rand.New(rand.NewSource(seedBase + int64(pi)))
		s := stats.Sampler{Dist: prop.dist, Shape: 2, Scale: 100}
		data := make([]byte, 0, nParticles*4)
		for i := 0; i < nParticles; i++ {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(float32(s.Sample(rng))))
		}
		dist := prop.dist
		f.Add(h5lite.Dataset{
			Name: prop.name,
			Type: stats.TypeFloat,
			Dist: &dist,
			Dims: []uint64{uint64(nParticles)},
			Data: data,
		})
	}
	return f.Encode()
}

// MicroConfig is the HDF5-source micro-benchmark's task: each process
// reads/writes an independent but overall contiguous block of a shared
// file, one TaskBytes task at a time.
type MicroConfig struct {
	TaskBytes int64
	Type      stats.DataType
	Dist      stats.Dist
}

// Attr returns the micro-benchmark's data attributes.
func (m MicroConfig) Attr() analyzer.Result {
	return analyzer.Result{Type: m.Type, Dist: m.Dist, Size: int(m.TaskBytes)}
}
