package device

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/formats"
)

// Result is the model's prediction for one (device, matrix, format)
// configuration.
type Result struct {
	GFLOPS     float64
	Watts      float64
	Feasible   bool
	Reason     string          // why infeasible, when Feasible is false
	Bottleneck core.Bottleneck // dominant limiter of this configuration
}

// GFLOPSPerWatt returns the energy-efficiency metric of Fig. 2b.
func (r Result) GFLOPSPerWatt() float64 {
	if r.Watts <= 0 {
		return 0
	}
	return r.GFLOPS / r.Watts
}

// Model knobs. These are fixed constants of the reproduction, documented
// here rather than tuned per experiment.
const (
	// loop overhead charged per row, in unit-cycles; vectorized kernels
	// amortize loop control better.
	rowOverheadScalar = 4.0
	rowOverheadVector = 2.0

	// GPU parallelism ramp: nonzeros needed per CUDA core for half of full
	// device utilization (small matrices cannot fill the device).
	gpuRampPerUnit = 128.0

	// GPU gather sector size for x misses; CPUs fetch whole lines.
	gpuSectorBytes = 32.0

	// Fraction of the GPU L2 effectively available to x: the matrix stream
	// itself occupies most of the small L2.
	gpuXCacheShare = 0.125

	// Streaming efficiency of gather-heavy GPU kernels against the
	// measured copy bandwidth, plus fixed per-nonzero kernel overhead
	// traffic (descriptor reads, transaction slack); together these bring
	// the model in line with published cuSPARSE double-precision rates.
	gpuStreamEff          = 0.5
	gpuKernelOverheadByte = 8.0

	// SpMV streams reach only a fraction of the aggregate LLC bandwidth a
	// bandwidth benchmark measures (the paper's Table II numbers are
	// all-core aggregates; L3 slices are private per core complex), and
	// slightly less than STREAM's triad rate from DRAM because of the
	// irregular gather mixed into the stream.
	cpuLLCStreamEff  = 0.42
	cpuDRAMStreamEff = 0.85

	// GPUs hold high clocks regardless of stalls; power never falls below
	// this utilization share.
	gpuPowerFloor = 0.65

	// Fraction of the LLC usable by the working set before thrashing.
	llcUsable = 0.85

	// HBM-image inflation per unit of skew for the FPGA's 2D-partitioned
	// layout (capacity gate only; the execution units skip all-zero beats).
	fpgaLayoutSkewFactor = 0.02

	// measurement-noise stand-in: deterministic jitter amplitude.
	jitterAmp = 0.06
)

// Estimate predicts performance and power for a matrix described by its
// features, stored in the named format. Format traits are derived
// analytically via formats.EstimateTraits.
func (s Spec) Estimate(fv core.FeatureVector, formatName string) Result {
	return s.estimateMulti(fv, formatName, 1, true)
}

// fallbackMultiEff is the per-vector efficiency of the by-column SpMM
// fallback relative to k independent single-vector calls: the fallback
// pays a dense gather of X and scatter of Y per vector on top of the
// kernel proper.
const fallbackMultiEff = 0.92

// EstimateMulti predicts performance and power for a k-wide multi-vector
// SpMV (SpMM) pass in the named format — the RHS-count axis of the model.
// Result.GFLOPS counts all 2*k*nnz flops, so values are comparable across
// formats at fixed k and show the fusion speedup over Estimate directly.
//
// Formats with fused MultiplyMany kernels stream the matrix once per pass
// and reuse every loaded nonzero k times, so their arithmetic intensity
// (core.FeatureVector.OperationalIntensityMulti) — and modeled rate —
// grows with k until the X/Y block traffic dominates. Formats on the
// by-column fallback execute k sequential single-vector passes and keep
// their k = 1 rate minus the block copy overhead. This asymmetry is what
// flips the win-rate ordering between regimes (e.g. ELL's padding skip
// promotes it under SpMM; CSR5 falls behind its k = 1 rank).
func (s Spec) EstimateMulti(fv core.FeatureVector, formatName string, k int) Result {
	return s.estimateMulti(fv, formatName, k, true)
}

// RankMulti is EstimateMulti without the deterministic measurement-noise
// jitter: the selection subsystem ranks candidates by the model's central
// estimate (noise in the ranking input only scrambles near-ties), while
// the figure and evaluation paths keep the noisy variant that stands in
// for measured data.
func (s Spec) RankMulti(fv core.FeatureVector, formatName string, k int) Result {
	return s.estimateMulti(fv, formatName, k, false)
}

func (s Spec) estimateMulti(fv core.FeatureVector, formatName string, k int, noise bool) Result {
	k = max(k, 1)
	if !formats.EstimateFeasible(formatName, fv) {
		return Result{Feasible: false, Reason: formatName + ": structure-hostile build rejected"}
	}
	tr, fused := formats.MultiTraits(formatName, fv, k)
	if k > 1 && !fused {
		r := s.estimateWithTraitsK(fv, tr, 1)
		if !r.Feasible {
			return r
		}
		r.GFLOPS *= fallbackMultiEff
		if noise {
			r.GFLOPS *= 1 + jitterK(s.Name, formatName, fv, k)*jitterAmp
		}
		return r
	}
	r := s.estimateWithTraitsK(fv, tr, k)
	if r.Feasible && noise {
		if k > 1 {
			r.GFLOPS *= 1 + jitterK(s.Name, formatName, fv, k)*jitterAmp
		} else {
			r.GFLOPS *= 1 + jitter(s.Name, formatName, fv)*jitterAmp
		}
	}
	return r
}

// estimateWithTraitsK predicts performance and power from explicit traits
// at RHS count k; k = 1 reproduces the single-vector model exactly. The FPGA
// model has no fused SpMM kernel (VSL runs the by-column fallback), so it
// only sees k = 1.
func (s Spec) estimateWithTraitsK(fv core.FeatureVector, tr formats.Traits, k int) Result {
	if fv.NNZ == 0 {
		return Result{Feasible: false, Reason: "empty matrix"}
	}
	k = max(k, 1)
	switch s.Class {
	case GPU:
		return s.estimateGPU(fv, tr, k)
	case FPGA:
		return s.estimateFPGA(fv, tr)
	default:
		return s.estimateCPU(fv, tr, k)
	}
}

// streamBytes is the stored-matrix traffic per SpMV: values plus all
// metadata and padding.
func streamBytes(fv core.FeatureVector, tr formats.Traits) float64 {
	return float64(fv.NNZ) * (8 + tr.MetaBytesPerNNZ)
}

// imbalanceFactor models how much longer the slowest worker runs than the
// mean, given the format's distribution discipline and the matrix skew.
// The generator concentrates heavy rows at the matrix head, so row-granular
// blocks place nearly the whole heavy mass on one worker — unless lanes
// claim chunks (Spec.ClaimsChunks): whatever the initial partition, the
// tail is then one chunk per lane plus the largest single row, which is
// the nonzero-granular bound.
func imbalanceFactor(fv core.FeatureVector, tr formats.Traits, workers int, claims bool) float64 {
	if workers <= 1 {
		return 1
	}
	p := float64(workers)
	balancing := tr.Balancing
	if claims && balancing == formats.RowGranular {
		balancing = formats.NNZGranular
	}
	switch balancing {
	case formats.ItemGranular:
		return 1
	case formats.NNZGranular:
		// Whole rows stay on one worker: a single giant row bounds balance.
		maxRowShare := (1 + fv.SkewCoeff) * fv.AvgNNZPerRow / math.Max(float64(fv.NNZ), 1)
		return math.Max(1, math.Min(maxRowShare*p, p))
	default: // RowGranular
		// Heavy-mass fraction of the exponential skew profile lands in one
		// row block.
		r := 1 + fv.SkewCoeff
		if r <= 1 {
			return 1
		}
		h := 1 - (1+math.Log(r))/r // nonzero mass above the mean row length
		if h < 0 {
			h = 0
		}
		return math.Min(h*p+(1-h), p)
	}
}

// rowOverheadColumnMajor is the residual per-row cost of a column-major
// slab sweep: rows run in the inner loop, so loop control amortizes over
// whole slab columns and only the y update remains per row.
const rowOverheadColumnMajor = 0.25

// ilpEfficiency models the low-ILP bottleneck: short rows spend cycles on
// loop control instead of FMAs. Fused k-wide kernels amortize loop control
// over a register tile of up to 4 vectors, so their effective per-flop
// overhead shrinks with min(k, 4); column-major slab sweeps (ELL-family
// k = 1 kernels) sidestep per-row loop control entirely, which is why ELL
// and HYB dominate short-row matrices despite identical traffic.
func ilpEfficiency(fv core.FeatureVector, tr formats.Traits, k int) float64 {
	overhead := rowOverheadScalar
	if tr.Class.Vectorized() {
		overhead = rowOverheadVector
	}
	if k > 1 {
		tile := math.Min(float64(k), 4)
		overhead /= tile
	} else if tr.ColumnMajor {
		overhead = rowOverheadColumnMajor
	}
	avg := math.Max(fv.AvgNNZPerRow, 1)
	return avg / (avg + overhead)
}

// xBlockLineFactor scales per-miss x traffic with k: a k-wide row-major X
// block keeps one nonzero's k operands contiguous, so a miss fetches
// ceil(8k/line) lines instead of k scattered ones — for k <= 8 the same
// single line that a k = 1 gather pays.
func xBlockLineFactor(k int, grainBytes float64) float64 {
	return math.Max(1, 8*float64(k)/grainBytes)
}

func (s Spec) estimateCPU(fv core.FeatureVector, tr formats.Traits, k int) Result {
	kk := float64(k)
	hit := XVectorHitRate(fv, s.LLCBytes)
	xBytes := float64(fv.NNZ) * (1 - hit) * LineBytes * xBlockLineFactor(k, LineBytes)
	yBytes := 16 * float64(fv.Rows) * kk // streamed out and written back
	total := streamBytes(fv, tr) + yBytes + xBytes

	// LLC residency decides which bandwidth the stream runs at; this is the
	// Fig. 3 cliff at the cache size.
	workingSet := streamBytes(fv, tr) + 8*float64(fv.Cols+fv.Rows)*kk
	resident := clamp01(llcUsable * float64(s.LLCBytes) / workingSet)
	tMem := total * (resident/(s.LLCBWGBs*cpuLLCStreamEff*1e9) +
		(1-resident)/(s.MemBWGBs*cpuDRAMStreamEff*1e9))

	ilp := ilpEfficiency(fv, tr, k)
	// In-core time: every nonzero at its kernel class's rate, per unit.
	// Decode work (compressed formats) is that much more per entry on top
	// of the FMA; it binds on few-core hosts and hides behind the memory
	// wall on bandwidth-starved many-core parts. (Padding is charged to the
	// memory term alone: here too, it moved the host fit's residual 0.002.)
	tCompute := kk * float64(fv.NNZ) * (1 + tr.DecodeCycles) / (float64(s.Units) * s.ClassRate[tr.Class] * 1e9 * ilp)

	// Short rows break the stream into tiny bursts that defeat the
	// prefetchers, so even the memory-bound path degrades with low ILP —
	// the paper's ~2x row-length effect on CPUs (Fig 4).
	tMem /= ilp

	ifactor := imbalanceFactor(fv, tr, s.Units, s.ClaimsChunks)
	t := (math.Max(tMem, tCompute) + (1-s.Overlap)*math.Min(tMem, tCompute)) * ifactor

	res := Result{Feasible: true}
	res.GFLOPS = 2 * kk * float64(fv.NNZ) / t / 1e9
	res.Bottleneck = classify(tMem, tCompute, ifactor, xBytes, total, ilp)

	// Cache-resident runs push the package toward its envelope (cores and
	// L3 fully busy); DRAM-bound runs idle the cores behind the memory
	// controllers, and imbalance idles the fast workers.
	busy := math.Max(tMem, tCompute)
	activity := math.Max(resident, math.Min(tCompute/busy, 1))
	util := (0.55 + 0.45*activity) / ifactor
	res.Watts = s.IdleWatts + (s.TDPWatts-s.IdleWatts)*clamp01(util)
	return res
}

func (s Spec) estimateGPU(fv core.FeatureVector, tr formats.Traits, k int) Result {
	kk := float64(k)
	// Device-memory capacity gate (matrix + vector blocks must fit).
	needed := streamBytes(fv, tr) + 8*kk*float64(fv.Rows+fv.Cols)
	if s.MemCapBytes > 0 && needed > float64(s.MemCapBytes) {
		return Result{Feasible: false, Reason: "matrix exceeds device memory"}
	}

	// The small L2 is mostly occupied by the matrix stream; x gets a slice.
	hit := XVectorHitRate(fv, int64(float64(s.LLCBytes)*gpuXCacheShare))
	// Gathers fetch 32-byte sectors; clustered columns coalesce. A k-wide
	// block gathers ceil(8k/sector) contiguous sectors per miss.
	coalesce := 0.5 + 0.5*clamp01(fv.AvgNumNeigh/2)
	xBytes := float64(fv.NNZ) * (1 - hit) * gpuSectorBytes * xBlockLineFactor(k, gpuSectorBytes) / coalesce
	rowBytes := 8*float64(fv.Rows) + 8*kk*float64(fv.Rows) // row descriptors + y update
	total := streamBytes(fv, tr) + rowBytes + xBytes + gpuKernelOverheadByte*float64(fv.NNZ)

	// Parallelism ramp: the matrix must expose enough work to fill the
	// device (Fig. 3: GPUs favor large matrices, up to ~2x). A k-wide pass
	// exposes k times the work.
	work := kk * float64(fv.NNZ)
	util := work / (work + float64(s.Units)*gpuRampPerUnit)

	tMem := total / (s.MemBWGBs * 1e9 * gpuStreamEff * util)
	ilp := ilpEfficiency(fv, tr, k)
	tCompute := kk * float64(fv.NNZ) * (1 + tr.DecodeCycles) / (float64(s.Units) * s.FreqGHz * 1e9 * util * ilp)

	// Warp-level scheduling hides skew well for the balanced formats; the
	// row-granular ones still serialize giant rows on single warps.
	ifactor := imbalanceFactor(fv, tr, 64, false)
	ifactor = 1 + (ifactor-1)*0.5 // hardware schedulers absorb half the skew
	t := math.Max(tMem, tCompute) * ifactor

	res := Result{Feasible: true}
	res.GFLOPS = 2 * kk * float64(fv.NNZ) / t / 1e9
	res.Bottleneck = classify(tMem, tCompute, ifactor, xBytes, total, ilp)
	busy := math.Max(tMem, tCompute)
	putil := util * (0.5 + 0.5*math.Min(tCompute/busy, 1)) / ifactor
	if putil < gpuPowerFloor {
		putil = gpuPowerFloor
	}
	res.Watts = s.IdleWatts + (s.TDPWatts-s.IdleWatts)*clamp01(putil)
	return res
}

func (s Spec) estimateFPGA(fv core.FeatureVector, tr formats.Traits) Result {
	padded := float64(fv.NNZ) * (1 + tr.PaddingRatio)
	bytes := streamBytes(fv, tr)
	// The accelerator's 2D-partitioned HBM image pads every column in a
	// partition to the partition maximum, so row-length skew inflates the
	// stored layout far beyond the streamed entries. This is the capacity
	// failure that removed 10 of the paper's 45 validation matrices.
	layoutBytes := bytes * (1 + fpgaLayoutSkewFactor*fv.SkewCoeff)
	if s.MemCapBytes > 0 && layoutBytes > float64(s.MemCapBytes) {
		return Result{Feasible: false, Reason: "padded image exceeds HBM capacity"}
	}

	// The compute units consume one padded entry per lane-cycle; the HBM
	// channels stream the padded image. Skewed column loads stall the
	// channel pipelines (Fig. 5: up to ~4x).
	tPipe := padded / (float64(s.Units) * float64(s.LanesPerU) * s.FreqGHz * 1e9)
	tMem := bytes / (s.MemBWGBs * 1e9)
	skewStall := 1 + 3*fv.SkewCoeff/(fv.SkewCoeff+1000)
	t := math.Max(tPipe, tMem) * skewStall

	res := Result{Feasible: true}
	res.GFLOPS = 2 * float64(fv.NNZ) / t / 1e9
	switch {
	case skewStall > 1.5:
		res.Bottleneck = core.LoadImbalance
	case tr.PaddingRatio > 1:
		res.Bottleneck = core.LowILP // padding from short rows/columns
	default:
		res.Bottleneck = core.BandwidthIntensity
	}
	util := 0.3 + 0.35/skewStall
	res.Watts = s.IdleWatts + (s.TDPWatts-s.IdleWatts)*clamp01(util)
	return res
}

// classify attributes the dominant bottleneck, echoing Section II-A.
func classify(tMem, tCompute, ifactor, xBytes, total, ilp float64) core.Bottleneck {
	switch {
	case ifactor > 1.5:
		return core.LoadImbalance
	case xBytes > 0.4*total:
		return core.MemoryLatency
	case tCompute > tMem && ilp < 0.8:
		return core.LowILP
	default:
		return core.BandwidthIntensity
	}
}

// Roof returns the device's roofline description for Fig. 1.
func (s Spec) Roof() Roof {
	return Roof{
		PeakGFLOPS: s.PeakGFLOPS(),
		MemBWGBs:   s.MemBWGBs,
		LLCBWGBs:   s.LLCBWGBs,
		LLCBytes:   s.LLCBytes,
	}
}

// BestFormat evaluates every format available on the device and returns the
// best-performing feasible one, as the paper reports "best result achieved
// among tested formats". ok is false when no format is feasible.
func (s Spec) BestFormat(fv core.FeatureVector) (name string, best Result, ok bool) {
	return s.BestFormatK(fv, 1)
}

// BestFormatK is BestFormat on the k-wide SpMM axis: the exhaustive-search
// ground truth of the k-regime, against which the selection subsystem's
// retained performance is scored.
func (s Spec) BestFormatK(fv core.FeatureVector, k int) (name string, best Result, ok bool) {
	for _, f := range s.Formats {
		r := s.EstimateMulti(fv, f, k)
		if !r.Feasible {
			continue
		}
		if !ok || r.GFLOPS > best.GFLOPS {
			best = r
			name = f
			ok = true
		}
	}
	return name, best, ok
}

// jitterK is jitter with the RHS-count regime mixed in, so k = 1 and k = 8
// estimates of one configuration do not share their noise sample.
func jitterK(device, format string, fv core.FeatureVector, k int) float64 {
	return jitter(device, fmt.Sprintf("%s#k%d", format, k), fv)
}

// jitter returns a deterministic pseudo-random value in [-1, 1] derived
// from the configuration, standing in for run-to-run measurement noise.
func jitter(device, format string, fv core.FeatureVector) float64 {
	h := uint64(1469598103934665603)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, b := range []byte(device) {
		mix(b)
	}
	for _, b := range []byte(format) {
		mix(b)
	}
	for _, v := range []uint64{uint64(fv.NNZ), uint64(fv.Rows), math.Float64bits(fv.SkewCoeff),
		math.Float64bits(fv.CrossRowSim), math.Float64bits(fv.AvgNumNeigh), math.Float64bits(fv.MemFootprintMB)} {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	return float64(int64(h))/math.MaxInt64*0.5 + float64(int64(h>>1))/math.MaxInt64*0.5
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
