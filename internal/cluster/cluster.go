// Package cluster is the bulk-synchronous rank simulator used by the
// experiment harness: N ranks issue I/O tasks against a shared tiered
// store, each carrying its own virtual clock, with barriers between
// phases — the structure of every workload in the paper's evaluation
// (timestep checkpoints, read phases, micro-benchmark loops).
package cluster

import (
	"context"
	"fmt"

	"hcompress/internal/analyzer"
	"hcompress/internal/core"
	"hcompress/internal/des"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/workload"
)

// IOClient abstracts the system under test: HCompress or a baseline.
type IOClient interface {
	Write(now float64, key string, data []byte, size int64, attr analyzer.Result) (manager.Result, error)
	Read(now float64, key string) (manager.Result, error)
}

// HCClient adapts the HCompress pipeline (engine + manager) to IOClient.
type HCClient struct {
	Eng *core.Engine
	Mgr *manager.Manager
	Mon *monitor.SystemMonitor
}

// Write plans with the HCDP engine and executes with the Compression
// Manager, replanning once on stale-capacity failures.
func (h *HCClient) Write(now float64, key string, data []byte, size int64, attr analyzer.Result) (manager.Result, error) {
	schema, err := h.Eng.Plan(now, attr, size)
	if err != nil {
		return manager.Result{}, err
	}
	reqs := []manager.WriteReq{{Key: key, Data: data, Size: size, Attr: attr, Schema: schema}}
	r := &reqs[0]
	h.Mgr.ExecuteWrites(context.Background(), now, reqs)
	if r.Err != nil {
		h.Mon.ForceRefresh()
		first := r.Err
		if r.Schema, err = h.Eng.Plan(now, attr, size); err != nil {
			return manager.Result{}, fmt.Errorf("cluster: replan: %w (after %v)", err, first)
		}
		r.Err = nil
		h.Mgr.ExecuteWrites(context.Background(), now, reqs)
	}
	return r.Res, r.Err
}

// Read delegates to the Compression Manager.
func (h *HCClient) Read(now float64, key string) (manager.Result, error) {
	reqs := []manager.ReadReq{{Key: key}}
	h.Mgr.ExecuteReads(context.Background(), now, reqs)
	return reqs[0].Res, reqs[0].Err
}

// PhaseStats aggregates one phase across all ranks.
type PhaseStats struct {
	Tasks     int
	Bytes     int64 // uncompressed bytes moved
	Stored    int64 // bytes placed on tiers (writes)
	CodecTime float64
	IOTime    float64
	// Makespan is the phase's completion time (max over ranks) minus its
	// start (the barrier before it).
	Makespan float64
}

// Sim drives R ranks with individual virtual clocks.
type Sim struct {
	clocks []des.Clock
}

// NewSim creates a simulator with the given rank count.
func NewSim(ranks int) *Sim {
	if ranks < 1 {
		ranks = 1
	}
	return &Sim{clocks: make([]des.Clock, ranks)}
}

// Ranks reports the rank count.
func (s *Sim) Ranks() int { return len(s.clocks) }

// Now reports the global makespan so far.
func (s *Sim) Now() float64 { return des.MaxTime(s.clocks) }

// Barrier synchronizes all ranks to the current makespan (MPI_Barrier).
func (s *Sim) Barrier() {
	m := s.Now()
	for i := range s.clocks {
		s.clocks[i].AdvanceTo(m)
	}
}

// Compute advances every rank by sec seconds of computation.
func (s *Sim) Compute(sec float64) {
	for i := range s.clocks {
		s.clocks[i].Advance(sec)
	}
}

// GenFunc materializes the data for (rank, task); nil data means modeled
// mode (sizes only).
type GenFunc func(rank, task int) []byte

// WritePhase has every rank issue tasksPerRank writes of size bytes.
// Tasks interleave across ranks (task-major order), approximating
// concurrent arrival at the shared store. A barrier follows the phase.
func (s *Sim) WritePhase(io IOClient, prefix string, tasksPerRank int, size int64, attr analyzer.Result, gen GenFunc) (PhaseStats, error) {
	start := s.Now()
	var st PhaseStats
	for task := 0; task < tasksPerRank; task++ {
		for r := range s.clocks {
			var data []byte
			if gen != nil {
				data = gen(r, task)
			}
			key := workload.TaskKey(prefix, r, task)
			res, err := io.Write(s.clocks[r].Now(), key, data, size, attr)
			if err != nil {
				return st, fmt.Errorf("cluster: rank %d task %d: %w", r, task, err)
			}
			s.clocks[r].AdvanceTo(res.End)
			st.Tasks++
			st.Bytes += size
			st.Stored += res.Stored
			st.CodecTime += res.CodecTime
			st.IOTime += res.IOTime
		}
	}
	s.Barrier()
	st.Makespan = s.Now() - start
	return st, nil
}

// ReadPhase has every rank read back its tasksPerRank tasks.
func (s *Sim) ReadPhase(io IOClient, prefix string, tasksPerRank int) (PhaseStats, error) {
	start := s.Now()
	var st PhaseStats
	for task := 0; task < tasksPerRank; task++ {
		for r := range s.clocks {
			key := workload.TaskKey(prefix, r, task)
			res, err := io.Read(s.clocks[r].Now(), key)
			if err != nil {
				return st, fmt.Errorf("cluster: rank %d task %d: %w", r, task, err)
			}
			s.clocks[r].AdvanceTo(res.End)
			st.Tasks++
			for _, sr := range res.SubResults {
				st.Bytes += sr.OrigLen
			}
			st.CodecTime += res.CodecTime
			st.IOTime += res.IOTime
		}
	}
	s.Barrier()
	st.Makespan = s.Now() - start
	return st, nil
}
