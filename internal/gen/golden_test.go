package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// hashCSR is FNV-1a over the shape, RowPtr, ColIdx and the bits of Val.
func hashCSR(m *matrix.CSR) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 1<<16)
	put := func(v uint64, size int) {
		if size == 4 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if len(buf) > 1<<16-8 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	put(uint64(m.Rows), 8)
	put(uint64(m.Cols), 8)
	for _, p := range m.RowPtr {
		put(uint64(p), 4)
	}
	for _, c := range m.ColIdx {
		put(uint64(c), 4)
	}
	for _, v := range m.Val {
		put(math.Float64bits(v), 8)
	}
	h.Write(buf)
	return h.Sum64()
}

// recipe mirrors benchmark/workloads.go's tier and denseRows: the
// benchmark is its own module, so the five recipes are restated here.
func recipe(rows int, avg float64, dense bool) Params {
	p := Params{Rows: rows, Cols: rows, AvgNNZPerRow: avg, StdNNZPerRow: 0.25 * avg,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8}
	if dense {
		p.BWScaled, p.SkewCoeff = 1, 0.5
	}
	return p
}

// goldenParams is 64 small generator configurations: a few chosen edge
// cases, then draws from a fixed source across both distributions.
func goldenParams() []Params {
	ps := []Params{
		{Rows: 1, Cols: 1, AvgNNZPerRow: 1, BWScaled: 1, Seed: 1},
		{Rows: 300, Cols: 300, AvgNNZPerRow: 40, StdNNZPerRow: 10, BWScaled: 1, CrossRowSim: 0.5, AvgNumNeigh: 1, Seed: 2},
		// Every row full width: random placement runs out of tries and the
		// row is topped up left to right (cases 8, 12 and 39 do so too).
		{Rows: 200, Cols: 300, AvgNNZPerRow: 300, BWScaled: 1, Seed: 3},
		// Rows nearly as long as the matrix is wide in a narrow window.
		{Rows: 64, Cols: 64, AvgNNZPerRow: 60, StdNNZPerRow: 4, BWScaled: 0.1, CrossRowSim: 0.5, AvgNumNeigh: 1, Seed: 3},
		{Rows: 128, Cols: 200, AvgNNZPerRow: 150, StdNNZPerRow: 30, BWScaled: 0.05, CrossRowSim: 0.9, AvgNumNeigh: 1.9, Seed: 4},
		{Rows: 100, Cols: 80, AvgNNZPerRow: 70, StdNNZPerRow: 10, Dist: Uniform, BWScaled: 0, CrossRowSim: 1, Seed: 5},
		{Rows: 500, Cols: 500, AvgNNZPerRow: 20, SkewCoeff: 10000, BWScaled: 0.3, CrossRowSim: 0.2, AvgNumNeigh: 0.5, Seed: 6},
		{Rows: 2*chunkRows + 100, Cols: 3000, AvgNNZPerRow: 3, StdNNZPerRow: 1, BWScaled: 0.2, CrossRowSim: 0.6, AvgNumNeigh: 1.2, Seed: 7},
		{Rows: 50, Cols: 1 << 17, AvgNNZPerRow: 200, StdNNZPerRow: 50, Dist: Uniform, SkewCoeff: 3, BWScaled: 0.002, CrossRowSim: 0.3, AvgNumNeigh: 1.5, Seed: 8},
	}
	r := rand.New(rand.NewSource(35))
	for len(ps) < 64 {
		cols := 1 + r.Intn(700)
		avg := 1 + r.Float64()*float64(min(cols, 120)-1)
		ps = append(ps, Params{
			Rows: 1 + r.Intn(600), Cols: cols,
			AvgNNZPerRow: avg,
			StdNNZPerRow: r.Float64() * avg / 2,
			Dist:         Distribution(r.Intn(2)),
			SkewCoeff:    float64(r.Intn(3)) * r.Float64() * 20,
			BWScaled:     r.Float64(),
			CrossRowSim:  r.Float64(),
			AvgNumNeigh:  r.Float64() * 1.99,
			Seed:         r.Int63(),
		})
	}
	return ps
}

// TestGenerateGolden pins the generator's output bit for bit: the
// benchmark's matrices and every dataset point come from it, so a faster
// generator must produce the same matrices. The hashes were recorded from
// the map-and-sort generator this package had before its column bitmap.
func TestGenerateGolden(t *testing.T) {
	recipes := []struct {
		name string
		p    Params
		want [2]uint64 // seeds 1 and 2
	}{
		{"lib-stream", recipe(420000, 20, false), [2]uint64{0xc436476d426639f2, 0x919c343d049449de}},
		{"lib-small", recipe(8000, 10, false), [2]uint64{0x4849ce89bb054762, 0x8dece2c841b6cfaf}},
		{"serve-batch", recipe(3000, 1000, true), [2]uint64{0xdf819e80fb8cdedb, 0x53d4b37a140d591a}},
		{"serve-wide", recipe(50000, 5, false), [2]uint64{0xe3b8eabfed3ba32a, 0x357d2f1f4e1fe5e9}},
		{"serve-update", recipe(2500, 64, false), [2]uint64{0x362021b6e5178943, 0x48dd6788cf8b407e}},
	}
	for _, rc := range recipes {
		if testing.Short() && rc.p.Rows > 100000 {
			continue
		}
		for s, want := range rc.want {
			p := rc.p
			p.Seed = int64(s + 1)
			m, err := Generate(p)
			if err != nil {
				t.Fatalf("%s seed %d: %v", rc.name, p.Seed, err)
			}
			if got := hashCSR(m); got != want {
				t.Errorf("%s seed %d: hash %#x, want %#x", rc.name, p.Seed, got, want)
			}
		}
	}
	want := []uint64{ // goldenParams, in order
		0xe8c4c9fb8be6b206, 0x8653628e80dc8f29, 0x40f4174a8e2a8cb1, 0x33c720934cd096e7,
		0x84c1839393407b31, 0x2536a65b8082f7ed, 0xeefda3799e9a8cc7, 0x188829a82c9387c9,
		0x8fd90701c5e3ef7, 0xa664f08de14ed3bb, 0x4b04b844386d64a, 0xf9cb7b5eaecb4fb1,
		0xc846f4f3be2005a0, 0x9fffa324a8c4da32, 0x9cc79686fe88d5e4, 0xd2b41220bd17486a,
		0x21ca49a74fea5e21, 0xcf3ea3c544bd8cc2, 0x14dbc628e2fa57e1, 0x3c71719cda353654,
		0x2c554dfde62de0b, 0x3ddb61e43c153b8e, 0x4489491ded3998d8, 0x17ff69cf4b643ea,
		0xb1f6aad15c9c774, 0x748d5b0617324045, 0xc3b72c69bd5bf33d, 0x8a0415c9d8a74582,
		0x5c64ed77c09a3fc0, 0x442a3d0c1aac2c82, 0x816fb0585dad410e, 0x7a692674187221a3,
		0xb3ab470e4f4bce8f, 0xb4e779ba39a79f86, 0xfef9715c777227c5, 0xa0360b8a144920e6,
		0x448b6ce31d97615, 0x5f8a787d383dd1a, 0xeab4d0a314fb75bc, 0xe650a9881304946e,
		0x4defbb3863467920, 0x275428844d9f0d35, 0x720caa00841f76ef, 0x4012f4fc04450ddc,
		0xeef84af7820b6afa, 0xf43d0725ef5b34c4, 0x1b252c2469cc9360, 0xec8dbbecf699c41,
		0x9ead30f8f7dddff5, 0xba03c54f2e85a191, 0x5c9d6b32a0bebfe0, 0xde7a8a9e9411acab,
		0xf6828940473b6f38, 0xd546571f7f673dbc, 0xd5311325d12d9d75, 0xa7ee82fdac917b9f,
		0x144d7122c84ab7ee, 0xa9d20dbbbf5bf18d, 0x8af4ff5b0c148814, 0x80b6f7ddd5879bb7,
		0x1c1da3c6b6dc9f74, 0x4f772c74da819b3e, 0x4361ad0b5dd2982c, 0xe15e9e8ea7d27159,
	}
	for i, p := range goldenParams() {
		m, err := GenerateParallel(p, 1+i%3)
		if err != nil {
			t.Fatalf("params %d %+v: %v", i, p, err)
		}
		if got := hashCSR(m); got != want[i] {
			t.Errorf("params %d %+v: hash %#x, want %#x", i, p, got, want[i])
		}
	}
}
