// Package device models the paper's nine testbeds (Table II) and predicts
// SpMV performance and power for a (matrix features, storage format) pair
// on each of them.
//
// The paper measured real hardware; this reproduction cannot (no GPUs or
// FPGAs in a pure-Go environment), so per the substitution methodology in
// DESIGN.md each device is an analytical bottleneck model composed of the
// same four effects the paper analyzes:
//
//	memory-bandwidth intensity - stored stream + vector traffic against the
//	   measured LLC/DRAM (or HBM) bandwidths, with an LLC residency cliff;
//	low ILP                    - loop/SIMD efficiency falling with short rows;
//	load imbalance             - partition skew against the format's work
//	   distribution discipline;
//	memory latency             - x-vector cache misses from the locality
//	   features (xcache.go).
//
// The numbers in Testbeds come straight from Table II (core counts, cache
// sizes, measured STREAM bandwidths, HBM capacities); TDP/idle figures are
// nominal vendor values, used only for the energy-efficiency rankings.
package device

import (
	"fmt"

	"repro/internal/formats"
)

// Class partitions the testbeds by architecture family.
type Class int

// Device classes.
const (
	CPU Class = iota
	GPU
	FPGA
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case FPGA:
		return "FPGA"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Spec describes one testbed. Bandwidths are the paper's measured values
// (STREAM for CPUs, utilized-channel estimates for the FPGA).
type Spec struct {
	Name  string
	Class Class

	Units     int     // CPU cores, CUDA cores, or FPGA compute units
	LanesPerU int     // doubles processed per unit-cycle (SIMD width / PE lanes)
	FreqGHz   float64 // nominal clock

	LLCBytes int64   // last-level cache (L2 for GPUs)
	MemBWGBs float64 // measured DRAM/HBM bandwidth
	LLCBWGBs float64 // measured LLC bandwidth (0: no usable LLC roof)

	MemCapBytes int64 // device-memory capacity gate (0: host memory, no gate)

	TDPWatts  float64
	IdleWatts float64

	Formats []string // storage formats available on this testbed (Table II)

	// The in-core half of a CPU model. ClassRate is the stored entries one
	// unit retires per nanosecond in each kernel class, memory aside: the
	// nominal FMA peak for a testbed (nominalCore), this library's kernels
	// timed on this machine for the host (HostSpec). Overlap is the share
	// of the shorter of a kernel's memory and in-core times that hides
	// behind the longer: 1 is the max rule, 0 adds them (Kreutzer et al.'s
	// model of a core whose loads stall its arithmetic). ClaimsChunks:
	// lanes claim bounded chunks and drain each other's ranges (this
	// library's engine) instead of owning one static block each (Table
	// II's OpenMP devices), which bounds what skew costs a row partition.
	ClassRate    [formats.NumClasses]float64
	Overlap      float64
	ClaimsChunks bool
}

// nominalCore fills a Table II testbed's in-core model from its data sheet:
// one FMA per lane-cycle, every lane for a vectorized kernel class and one
// for a scalar one, hidden in full behind the memory stream.
func (s *Spec) nominalCore() {
	for c := formats.ClassNone + 1; c < formats.NumClasses; c++ {
		s.ClassRate[c] = s.FreqGHz
		if c.Vectorized() {
			s.ClassRate[c] *= float64(s.LanesPerU)
		}
	}
	s.Overlap = 1
}

// PeakGFLOPS returns the nominal double-precision FMA peak.
func (s Spec) PeakGFLOPS() float64 {
	return float64(s.Units) * float64(s.LanesPerU) * s.FreqGHz * 2
}

// Testbeds returns the nine Table II machines. Vendor-library entries map
// onto this repository's format names: MKL-IE stands for every
// inspector-executor vendor CSR (Intel MKL, AOCL-Sparse, ARMPL), Bal-CSR
// for cuSPARSE's load-balanced CSR path, and VSL for the Vitis Sparse
// Library accelerator. VSL, Vec-CSR and Bal-CSR are priced by their trait
// estimates: the host builds no kernel of their own.
func Testbeds() []Spec {
	specs := []Spec{
		{
			Name: "AMD-EPYC-24", Class: CPU,
			Units: 24, LanesPerU: 4, FreqGHz: 2.8,
			LLCBytes: 128 << 20, MemBWGBs: 50, LLCBWGBs: 700,
			TDPWatts: 180, IdleWatts: 45,
			Formats: []string{"MKL-IE", "Naive-CSR", "Vec-CSR", "CSR5", "Merge-CSR", "SparseX", "SELL-C-s"},
		},
		{
			Name: "AMD-EPYC-64", Class: CPU,
			Units: 64, LanesPerU: 4, FreqGHz: 2.25,
			LLCBytes: 256 << 20, MemBWGBs: 105, LLCBWGBs: 878,
			TDPWatts: 225, IdleWatts: 60,
			Formats: []string{"MKL-IE", "Naive-CSR", "CSR5"},
		},
		{
			// The paper measured package power via the Altra hardware
			// monitor and found the Altra the only CPU to stand out on
			// power; the envelope below reflects that measured behaviour
			// rather than the nominal 250 W TDP.
			Name: "ARM-NEON", Class: CPU,
			Units: 80, LanesPerU: 2, FreqGHz: 3.3,
			LLCBytes: 80 << 20, MemBWGBs: 102, LLCBWGBs: 650,
			TDPWatts: 120, IdleWatts: 25,
			Formats: []string{"MKL-IE", "Naive-CSR", "Vec-CSR", "Merge-CSR", "SparseX", "SELL-C-s"},
		},
		{
			Name: "INTEL-XEON", Class: CPU,
			Units: 14, LanesPerU: 8, FreqGHz: 2.2,
			LLCBytes: 19<<20 + 256<<10, MemBWGBs: 55, LLCBWGBs: 300,
			TDPWatts: 105, IdleWatts: 30,
			Formats: []string{"MKL-IE", "Naive-CSR", "CSR5", "Merge-CSR", "SparseX", "SELL-C-s"},
		},
		{
			Name: "IBM-POWER9", Class: CPU,
			Units: 32, LanesPerU: 2, FreqGHz: 3.1, // 16 cores x 2 SMT threads
			LLCBytes: 80 << 20, MemBWGBs: 109, LLCBWGBs: 612,
			TDPWatts: 200, IdleWatts: 50, // the paper's pessimistic constant TDP
			Formats: []string{"Naive-CSR", "Bal-CSR", "Merge-CSR", "SparseX"},
		},
		{
			Name: "Tesla-P100", Class: GPU,
			Units: 3584, LanesPerU: 1, FreqGHz: 1.48,
			LLCBytes: 4 << 20, MemBWGBs: 464,
			MemCapBytes: 12 << 30,
			TDPWatts:    250, IdleWatts: 55,
			Formats: []string{"COO", "Bal-CSR", "HYB", "CSR5"},
		},
		{
			Name: "Tesla-V100", Class: GPU,
			Units: 5120, LanesPerU: 1, FreqGHz: 1.455,
			LLCBytes: 6 << 20, MemBWGBs: 760,
			MemCapBytes: 32 << 30,
			TDPWatts:    250, IdleWatts: 55,
			Formats: []string{"COO", "Bal-CSR", "HYB", "CSR5"},
		},
		{
			Name: "Tesla-A100", Class: GPU,
			Units: 6912, LanesPerU: 1, FreqGHz: 1.41,
			LLCBytes: 40 << 20, MemBWGBs: 1350,
			MemCapBytes: 40 << 30,
			TDPWatts:    250, IdleWatts: 55,
			Formats: []string{"COO", "Bal-CSR", "Merge-CSR"},
		},
		{
			// The paper's Table II lists Merge-CSR beside the Vitis library
			// as a host-side comparison point; the accelerator itself runs
			// only the VSL kernel, which is what this spec models — so
			// capacity failures surface as missing measurements, as in the
			// paper's Fig. 1.
			Name: "Alveo-U280", Class: FPGA,
			Units: 16, LanesPerU: 1, FreqGHz: 0.3,
			LLCBytes: 0, MemBWGBs: 287.5,
			MemCapBytes: 8 << 30,
			TDPWatts:    18, IdleWatts: 7,
			Formats: []string{"VSL"},
		},
	}
	for i := range specs {
		specs[i].nominalCore()
	}
	return specs
}

// ByName finds a device: one of the nine testbeds, or "host", the machine
// this process runs on (HostSpec).
func ByName(name string) (Spec, bool) {
	if name == "host" {
		return HostSpec(), true
	}
	for _, s := range Testbeds() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the testbed names in Table II order.
func Names() []string {
	specs := Testbeds()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
