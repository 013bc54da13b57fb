package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/stats"
	"repro/internal/topo"
)

// simdFormats are the formats whose hot loops run through the dispatch
// table (internal/simd); the simd experiment A/B-tests exactly these. The
// untouched formats would measure identical code on both sides.
var simdFormats = []string{"Vec-CSR", "MKL-IE", "ELL", "SELL-C-s", "BCSR"}

// RunSIMD measures every dispatched format at every dispatch tier the
// host supports — scalar references, the AVX2 kernels, and (when
// detected) the AVX-512 kernels — on every matrix tier, and reports each
// accelerated tier's speedup over scalar. All tiers run the SAME built
// format, warmed plans and worker budget; only the dispatch table swaps
// between runs, so the ratios isolate the micro-kernels. k = 1 rows
// exercise the single-vector gather kernels, k = 8 rows the fused
// broadcast-tile SpMM kernels. The acceptance note gates AVX-512 against
// AVX2: the wider tier must not regress the geomean on the medium and
// large matrix tiers (PASS/FAIL; SKIP without AVX-512 hardware).
func RunSIMD(o Options) []*Report {
	r := &Report{
		ID:     "simd",
		Title:  "SIMD dispatch tiers: scalar vs AVX2 vs AVX-512",
		Header: []string{"tier", "format", "k", "scalar_ms", "avx2_ms", "avx512_ms", "avx2_x", "avx512_x"},
	}
	if !simd.Available() {
		r.AddNote("no accelerated kernels on this host (level %s); nothing to A/B", simd.Level())
		r.AddNote("acceptance gate avx512/avx2 (medium-600k + large-2M): SKIP (no accelerated kernels)")
		return []*Report{r}
	}
	prevCap := simd.SetLevel("auto")
	defer simd.SetLevel(prevCap)
	has512 := simd.DetectedLevel() == "avx512"
	workers := exec.MaxWorkers()
	exec.Prestart()

	tierGeo := map[string][]float64{}
	var gateGeo []float64 // avx2_ns/avx512_ns on the gated matrix tiers
	for _, tier := range spmmTiers() {
		m, err := tier.build(o.Seed)
		if err != nil {
			r.AddNote("tier %s: matrix generation failed: %v", tier.name, err)
			continue
		}
		x := matrix.RandomVector(m.Cols, o.Seed+5)
		y := make([]float64, m.Rows)
		ys := make([]float64, m.Rows)
		const kMulti = 8
		xm := matrix.RandomVector(m.Cols*kMulti, o.Seed+6)
		ym := make([]float64, m.Rows*kMulti)
		yms := make([]float64, m.Rows*kMulti)
		for _, name := range simdFormats {
			// Build under the widest dispatch so structure follows the live
			// vector width (SELL-C-s chunks to 8 lanes under AVX-512).
			simd.SetLevel("auto")
			if has512 {
				simd.SetLevel("avx512")
			}
			b, ok := formats.Lookup(name)
			if !ok {
				continue
			}
			f, err := b.Build(m)
			if err != nil {
				continue // e.g. slab formats refusing hostile structure
			}
			// Warm every dispatch tier, cross-checking each against the
			// scalar references before timing.
			simd.SetLevel("scalar")
			f.SpMVParallel(x, ys, workers)
			f.MultiplyMany(yms, xm, kMulti)
			diverged := false
			levels := []string{"avx2"}
			if has512 {
				levels = append(levels, "avx512")
			}
			for _, lvl := range levels {
				simd.SetLevel(lvl)
				f.SpMVParallel(x, y, workers)
				f.MultiplyMany(ym, xm, kMulti)
				if d := maxAbsDiff(y, ys); d > 1e-8 {
					r.AddNote("tier %s %s: %s/scalar k=1 divergence %g — excluded", tier.name, name, lvl, d)
					diverged = true
				}
				if d := maxAbsDiff(ym, yms); d > 1e-8 {
					r.AddNote("tier %s %s: %s/scalar k=%d divergence %g — excluded", tier.name, name, lvl, kMulti, d)
					diverged = true
				}
			}
			if diverged {
				continue
			}
			type run struct {
				k  int
				fn func()
			}
			for _, rn := range []run{
				{1, func() { f.SpMVParallel(x, y, workers) }},
				{kMulti, func() { f.MultiplyMany(ym, xm, kMulti) }},
			} {
				simd.SetLevel("scalar")
				scalarNs := spmmMeasureNs(rn.fn)
				simd.SetLevel("avx2")
				avx2Ns := spmmMeasureNs(rn.fn)
				avx512Ms, avx512X := "-", "-"
				if has512 {
					simd.SetLevel("avx512")
					avx512Ns := spmmMeasureNs(rn.fn)
					avx512Ms = fmt.Sprintf("%.3f", avx512Ns/1e6)
					avx512X = fmt.Sprintf("%.2f", scalarNs/avx512Ns)
					tierGeo[tier.name] = append(tierGeo[tier.name], scalarNs/avx512Ns)
					if tier.name == "medium-600k" || tier.name == "large-2M" {
						gateGeo = append(gateGeo, avx2Ns/avx512Ns)
					}
				} else {
					tierGeo[tier.name] = append(tierGeo[tier.name], scalarNs/avx2Ns)
				}
				r.AddRow(tier.name, name, fmt.Sprintf("%d", rn.k),
					fmt.Sprintf("%.3f", scalarNs/1e6), fmt.Sprintf("%.3f", avx2Ns/1e6),
					avx512Ms, fmt.Sprintf("%.2f", scalarNs/avx2Ns), avx512X)
			}
		}
	}
	widest := "avx2"
	if has512 {
		widest = "avx512"
	}
	for _, tier := range spmmTiers() {
		if s := tierGeo[tier.name]; len(s) > 0 {
			r.AddNote("tier %s geomean %s speedup over scalar: %.2fx over %d (format, k) pairs",
				tier.name, widest, stats.GeoMean(s), len(s))
		}
	}
	switch {
	case !has512:
		r.AddNote("acceptance gate avx512/avx2 (medium-600k + large-2M): SKIP (detected level %s, no AVX-512)",
			simd.DetectedLevel())
	case len(gateGeo) == 0:
		r.AddNote("acceptance gate avx512/avx2 (medium-600k + large-2M): SKIP (no gated pairs measured)")
	default:
		g := stats.GeoMean(gateGeo)
		verdict := "PASS"
		if g < 1.0 {
			verdict = "FAIL"
		}
		r.AddNote("acceptance gate avx512/avx2 (medium-600k + large-2M): %.2fx geomean over %d pairs — %s",
			g, len(gateGeo), verdict)
	}
	r.AddNote("method: min ns/op over 3 adaptive runs (>=%v each tier) on the same built format; the dispatch table swaps between runs (%s)", spmmMinMeasure, simd.EnvLevel)
	r.AddNote("dispatch: level=%s detected=%s width=%d features=[%s]; host: GOMAXPROCS=%d, %d shard(s) over %d domain(s)",
		simd.InstalledLevel(), simd.DetectedLevel(), simd.Width(), strings.Join(simd.Features(), " "),
		runtime.GOMAXPROCS(0), topo.Shards(), topo.NumDomains())
	return []*Report{r}
}

// DispatchReport summarizes the runtime SIMD dispatch state: the detected
// CPU feature set and the per-kernel table. It rides along with every
// spmv-bench run the way the shard report does, so kernel numbers are
// never read without knowing which kernels produced them.
func DispatchReport() *Report {
	r := &Report{
		ID:     "dispatch",
		Title:  "SIMD kernel dispatch",
		Header: []string{"kernel", "impl"},
	}
	for _, e := range simd.Table() {
		r.AddRow(e.Kernel, e.Impl)
	}
	state := "enabled"
	if !simd.Enabled() {
		state = "disabled (scalar references)"
	}
	r.AddNote("dispatch %s: active level=%s detected=%s width=%d lanes; detected features=[%s]",
		state, simd.Level(), simd.DetectedLevel(), simd.Width(), strings.Join(simd.Features(), " "))
	r.AddNote("%s=scalar|avx2|avx512 (or spmv.SetSIMDLevel) caps the tier; scalar forces the portable path", simd.EnvLevel)
	return r
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
