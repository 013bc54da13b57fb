package simd

import "testing"

// The codec's AVX-512 rung follows the CPU and the cap alone: under
// "auto" it stays installed when every ZMM SpMV kernel loses its
// calibration and the tier reads avx2.
func TestCodecTierIgnoresCalibration(t *testing.T) {
	if !can.codec {
		t.Skip("no AVX-512 BW/VBMI2 on this CPU")
	}
	defer SetLevel(SetLevel("auto"))
	setMu.Lock()
	saved := calWin
	calWin = map[string]bool{} // every ZMM kernel lost
	install("auto")
	lvl, codec, impl := level, codecAVX512, kernelImpl[kScanPlain]
	calWin = saved
	install(curCap)
	setMu.Unlock()
	if lvl != "avx2" {
		t.Errorf("level = %s with every ZMM kernel losing, want avx2", lvl)
	}
	if !codec || impl != "avx512" {
		t.Errorf("codec tier off (%v, %s) when the SpMV kernels lost calibration", codec, impl)
	}
}
