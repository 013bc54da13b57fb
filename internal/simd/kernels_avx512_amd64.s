#include "textflag.h"
#include "csrtile_amd64.h"

// AVX-512F micro-kernels for the SpMV inner loops: 8-lane ZMM ports of
// the AVX2 kernels in kernels_amd64.s.
//
// Conventions (on top of the AVX2 file's):
//   - The CSR k = 1 kernel builds x by scalar loads (see its comment).
//     The other gathers load x through sign-extended 32-bit column
//     indices (VPMOVSXDQ + VGATHERQPD), or zero-extended 16-bit ones
//     (VPMOVZXWQ) in the U16 twins, under an opmask rebuilt before EVERY
//     gather — the instruction zeroes its mask as it completes.
//   - Lane-unaligned tails use opmask predication: the tail mask is
//     (1<<rem)-1, masked loads are zeroing (.Z) so dead lanes contribute
//     exact zeros, and masked-off elements are never dereferenced (EVEX
//     fault suppression) — no scalar remainder loops.
//   - As in the AVX2 file, the CSR kernels run CSRRowRangeGo's order with
//     FMA and the others their scalar loops' with VMULPD/VADDPD.
//   - VZEROUPPER before every RET that follows ZMM/YMM use.

// func csrRowRangeAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi int)
// func csrRowRangeAVX512U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)
//
// CSR rows [lo, hi) at k = 1 in the canonical order (CSRRowRangeGo's),
// one call per claimed chunk. The row loop carries end from row to row.
// Entry j of a row goes into lane j mod 8 of one ZMM accumulator, from
// +0, and the lanes reduce as ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)).
//
// x is built by scalar loads, not gathered: an 8-group reads its indices
// 64 bits at a time (XPAIR, XQUAD), loads its eight x entries by
// VMOVSD/VMOVHPD into four XMM halves and joins them with VINSERTF128 and
// VINSERTF64X4 (X8). On a Zen 5 core one ZMM VGATHERQPD costs more than
// eight scalar loads, and a masked one as much as a full one. Each step
// prefetches the val and idx streams CSR_PREFETCH entries ahead.
//
// The last n mod 8 entries of a row take one step under the opmask
// (1<<rem)-1: a zeroing val load and a merge-masked FMA, so the dead
// lanes keep their sums. While j+8 <= rowPtr[hi], the call's last entry,
// the step builds x from the next eight indices as a group does: the dead
// lanes' x belongs to later rows of the call and never enters a sum.
// Nearer the end it gathers under the mask (zeroing index load), so the
// kernel reads no index outside its call's rows. A row of at most 8
// entries (empty included) is that step alone.
//
// CSR_ROW_RANGE_AVX512 is the body for both index widths: X8 builds Z1,
// LOADXZ widens eight indices to qwords under K2 and SCALE is the index
// size. The masked loads need no slack at either width: EVEX fault
// suppression skips the dead elements.

// CSR_PREFETCH is the prefetch distance in entries: 6 KB of val, 3 KB of
// int32 or 1.5 KB of uint16 indices (docs/BENCHMARKS.md, "Scalar x loads
// and a stream prefetch in the CSR row kernel").
#define CSR_PREFETCH 768

// XPAIR: x[idx[j+2h]], x[idx[j+2h+1]] into XR, from the int32 pair at
// byte OFF = 8h.
#define XPAIR(OFF, XR) \
	MOVQ    OFF(DI)(AX*4), R14 \
	MOVLQSX R14, CX \
	SARQ    $32, R14 \
	VMOVSD  (DX)(CX*8), XR \
	VMOVHPD (DX)(R14*8), XR, XR

// XQUAD: x[idx[j+4q..j+4q+3]] into XA (first two) and XB, from the uint16
// quad at byte OFF = 8q.
#define XQUAD(OFF, XA, XB) \
	MOVQ    OFF(DI)(AX*2), R14 \
	MOVWQZX R14, CX \
	VMOVSD  (DX)(CX*8), XA \
	SHRQ    $16, R14 \
	MOVWQZX R14, CX \
	VMOVHPD (DX)(CX*8), XA, XA \
	SHRQ    $16, R14 \
	MOVWQZX R14, CX \
	VMOVSD  (DX)(CX*8), XB \
	SHRQ    $16, R14 \
	VMOVHPD (DX)(R14*8), XB, XB

#define X8_JOIN \
	VINSERTF128  $1, X2, Y1, Y1 \
	VINSERTF128  $1, X4, Y3, Y3 \
	VINSERTF64X4 $1, Y3, Z1, Z1

#define X8_I32 XPAIR(0, X1); XPAIR(8, X2); XPAIR(16, X3); XPAIR(24, X4); X8_JOIN
#define X8_U16 XQUAD(0, X1, X2); XQUAD(8, X3, X4); X8_JOIN

#define CSR_ROW_RANGE_AVX512(X8, LOADXZ, SCALE) \
	MOVQ rowPtr+0(FP), R8 \
	MOVQ idx+8(FP), DI \
	MOVQ val+16(FP), SI \
	MOVQ x+24(FP), DX \
	MOVQ y+32(FP), R9 \
	MOVQ lo+40(FP), R10            /* i */ \
	MOVQ hi+48(FP), R11 \
	CMPQ R10, R11 \
	JGE  done \
	MOVLQSX (R8)(R11*4), R13       /* rowPtr[hi]: the call's last entry */ \
	MOVLQSX (R8)(R10*4), R12       /* end = rowPtr[lo] */ \
row: \
	MOVQ    R12, AX                /* j = start */ \
	MOVLQSX 4(R8)(R10*4), R12      /* end = rowPtr[i+1] */ \
	VXORPD  Z0, Z0, Z0             /* p0..p7 */ \
	MOVQ    R12, BX \
	SUBQ    AX, BX \
	ANDQ    $-8, BX                /* n &^ 7 */ \
	JZ      tail \
	ADDQ    AX, BX                 /* where the 8-groups end */ \
loop8: \
	PREFETCHT0 (CSR_PREFETCH*8)(SI)(AX*8) \
	PREFETCHT0 (CSR_PREFETCH*SCALE)(DI)(AX*SCALE) \
	X8                             /* x[idx[j..j+7]] */ \
	VFMADD231PD (SI)(AX*8), Z1, Z0 /* p += val * x */ \
	ADDQ $8, AX \
	CMPQ AX, BX \
	JLT  loop8 \
tail: \
	MOVQ R12, CX \
	SUBQ AX, CX                    /* rem = n & 7 */ \
	JZ   reduce \
	MOVL $1, BX \
	SHLL CX, BX \
	DECL BX                        /* (1<<rem)-1 */ \
	KMOVW BX, K2 \
	LEAQ 8(AX), BX \
	CMPQ BX, R13 \
	JGT  gather                    /* under 8 entries left in the call */ \
	PREFETCHT0 (CSR_PREFETCH*8)(SI)(AX*8) \
	PREFETCHT0 (CSR_PREFETCH*SCALE)(DI)(AX*SCALE) \
	X8                             /* the dead lanes read later rows */ \
	JMP  fma \
gather: \
	LOADXZ (DI)(AX*SCALE), K2, Z2  /* masked idx load (fault-suppressed) */ \
	KMOVW K2, K3                   /* gather clobbers its mask */ \
	VXORPD     Z1, Z1, Z1 \
	VGATHERQPD (DX)(Z2*8), K3, Z1 \
fma: \
	VMOVUPD.Z  (SI)(AX*8), K2, Z6 \
	VFMADD231PD Z1, Z6, K2, Z0     /* live lanes only */ \
reduce: \
	VEXTRACTF64X4 $1, Z0, Y1 \
	VADDPD        Y1, Y0, Y0       /* [p0+p4, p1+p5, p2+p6, p3+p7] */ \
	VEXTRACTF128  $1, Y0, X1 \
	VADDPD        X1, X0, X0 \
	VUNPCKHPD     X0, X0, X1 \
	VADDSD        X1, X0, X0 \
	VMOVSD        X0, (R9)(R10*8)  /* y[i] */ \
	INCQ R10 \
	CMPQ R10, R11 \
	JLT  row \
	VZEROUPPER \
done: \
	RET

// func csrTileAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi, k int)
// func csrTileAVX512U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi, k int)
//
// The ZMM form of csrTileAVX2: eight vectors per pass over a row, Z0..Z7
// the partial sums 0..7 of the pass's vectors, the same reduction, and
// the pass's live lanes under the opmask K1 — merge-masked FMAs whose x
// operands are fault-suppressed past them, and a masked store. A pass of
// at most four vectors is CSR_TILE_YMM_PASS instead. CSR_TILE_AVX512 is
// the body for both index widths: LOADS widens one index, SCALE is its
// size. CSR_TILE_STEP_AVX512 is entry E of a group into ACC.
#define CSR_TILE_STEP_AVX512(LOADS, SCALE, E, ACC) \
	LOADS (E*SCALE)(DI)(AX*SCALE), CX \
	IMULQ R12, CX \
	VBROADCASTSD (E*8)(SI)(AX*8), Z9 \
	VFMADD231PD (R14)(CX*1), Z9, K1, ACC

#define CSR_TILE_AVX512(LOADS, SCALE) \
	MOVQ rowPtr+0(FP), R8 \
	MOVQ idx+8(FP), DI \
	MOVQ val+16(FP), SI \
	MOVQ x+24(FP), DX \
	MOVQ y+32(FP), R9 \
	MOVQ lo+40(FP), R10            /* i */ \
	MOVQ hi+48(FP), R11 \
	MOVQ k+56(FP), R12 \
	SHLQ $3, R12                   /* k * 8: the x and y row pitch */ \
	MOVQ R10, AX \
	IMULQ R12, AX \
	ADDQ AX, R9                    /* y's row lo */ \
	CMPQ R10, R11 \
	JGE  done \
row: \
	XORQ R13, R13                  /* the pass's offset into the row */ \
pass: \
	MOVQ R12, CX \
	SUBQ R13, CX \
	CMPQ CX, $32 \
	JLE  ypass                     /* at most four vectors left */ \
	SHRQ $3, CX                    /* vectors left */ \
	CMPQ CX, $8 \
	JLE  lanes \
	MOVQ $8, CX \
lanes: \
	MOVL $1, BX \
	SHLL CX, BX \
	DECL BX \
	KMOVW BX, K1                   /* the pass's live lanes */ \
	LEAQ (DX)(R13*1), R14          /* x at the pass's first vector */ \
	VXORPD Z0, Z0, Z0 \
	VXORPD Z1, Z1, Z1 \
	VXORPD Z2, Z2, Z2 \
	VXORPD Z3, Z3, Z3 \
	VXORPD Z4, Z4, Z4 \
	VXORPD Z5, Z5, Z5 \
	VXORPD Z6, Z6, Z6 \
	VXORPD Z7, Z7, Z7 \
	MOVLQSX (R8)(R10*4), AX        /* j = start */ \
	MOVLQSX 4(R8)(R10*4), BX \
	SUBQ AX, BX \
	ANDQ $-8, BX \
	ADDQ AX, BX                    /* where the 8-groups end */ \
group: \
	CMPQ AX, BX \
	JGE  rest \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 0, Z0) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 1, Z1) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 2, Z2) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 3, Z3) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 4, Z4) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 5, Z5) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 6, Z6) \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 7, Z7) \
	ADDQ $8, AX \
	JMP  group \
rest: \
	MOVLQSX 4(R8)(R10*4), BX \
	SUBQ AX, BX                    /* entries left, 0..7 */ \
	JZ   reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 0, Z0) \
	CMPQ BX, $1 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 1, Z1) \
	CMPQ BX, $2 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 2, Z2) \
	CMPQ BX, $3 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 3, Z3) \
	CMPQ BX, $4 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 4, Z4) \
	CMPQ BX, $5 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 5, Z5) \
	CMPQ BX, $6 \
	JEQ  reduce \
	CSR_TILE_STEP_AVX512(LOADS, SCALE, 6, Z6) \
reduce: \
	VADDPD Z4, Z0, Z0 \
	VADDPD Z6, Z2, Z2 \
	VADDPD Z5, Z1, Z1 \
	VADDPD Z7, Z3, Z3 \
	VADDPD Z2, Z0, Z0 \
	VADDPD Z3, Z1, Z1 \
	VADDPD Z1, Z0, Z0 \
	VMOVUPD Z0, K1, (R9)(R13*1) \
	ADDQ $64, R13 \
	CMPQ R13, R12 \
	JLT  pass \
	JMP  next \
ypass: \
	CSR_TILE_YMM_PASS(LOADS, SCALE, ygroup, yrest, yreduce) \
next: \
	ADDQ R12, R9                   /* next y row */ \
	INCQ R10 \
	CMPQ R10, R11 \
	JLT  row \
	VZEROUPPER \
done: \
	RET

TEXT ·csrRowRangeAVX512(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX512(X8_I32, VPMOVSXDQ.Z, 4)

TEXT ·csrRowRangeAVX512U16(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX512(X8_U16, VPMOVZXWQ.Z, 2)

TEXT ·csrTileAVX512(SB), NOSPLIT, $0-64
	CSR_TILE_AVX512(MOVLQSX, 4)

TEXT ·csrTileAVX512U16(SB), NOSPLIT, $0-64
	CSR_TILE_AVX512(MOVWQZX, 2)

// func dotBcastTile8AVX512(val *float64, idx *int32, x *float64, stride, n, k int) (dst [8]float64)
//
// Fused SpMM register tile of the ELL/HYB/SELL-C-sigma ladder:
// dst[t] = sum of val[j*stride] * X[idx[j*stride], t] for the 8 tile
// vectors t, returned by value. x is pre-offset to the tile start. Each
// lane is an independent sequential mul-then-add sum — bit-identical.
TEXT ·dotBcastTile8AVX512(SB), NOSPLIT, $0-112
	MOVQ   val+0(FP), SI
	MOVQ   idx+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   stride+24(FP), R10
	MOVQ   n+32(FP), CX
	MOVQ   k+40(FP), R12
	SHLQ   $3, R12  // k * 8: X row pitch in bytes
	MOVQ   R10, R11
	SHLQ   $3, R10  // stride * 8
	SHLQ   $2, R11  // stride * index size
	VXORPD Z0, Z0, Z0
	TESTQ  CX, CX
	JZ     done
loop:
	MOVLQSX      (DI), AX
	IMULQ        R12, AX  // idx * k * 8
	VMOVUPD      (DX)(AX*1), Z1  // X tile row (8 vectors)
	VBROADCASTSD (SI), Z2
	VMULPD       Z1, Z2, Z2
	VADDPD       Z2, Z0, Z0
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop
done:
	LEAQ    dst+48(FP), R8
	VMOVUPD Z0, (R8)
	VZEROUPPER
	RET

// func laneDot8AVX512(val *float64, idx *int32, x *float64, stride, n int) (sums [8]float64)
//
// SELL-C-sigma chunk sweep: eight independent lane sums accumulated over
// n strided columns, returned by value. Each lane accumulates
// sequentially in ascending column order — bit-identical to the scalar
// lane loop.
TEXT ·laneDot8AVX512(SB), NOSPLIT, $0-104
	MOVQ   val+0(FP), SI
	MOVQ   idx+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   stride+24(FP), R10
	MOVQ   n+32(FP), CX
	VXORPD Z0, Z0, Z0
	MOVQ   R10, R11
	SHLQ   $3, R10                 // stride * 8 (val step, bytes)
	SHLQ   $2, R11                 // stride * 4 (idx step, bytes)
	TESTQ  CX, CX
	JZ     done

loop:
	VPMOVSXDQ  (DI), Z2
	KXNORW     K1, K1, K1
	VXORPD     Z5, Z5, Z5
	VGATHERQPD (DX)(Z2*8), K1, Z5
	VMULPD     (SI), Z5, Z5
	VADDPD     Z5, Z0, Z0
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop

done:
	LEAQ    sums+40(FP), R8
	VMOVUPD Z0, (R8)
	VZEROUPPER
	RET

// func bcsr2x2Tile8AVX512(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64)
//
// BCSR SpMM tile: 2 block rows x 8 tile vectors over n interior 2x2
// blocks, returned by value (lo is block row 0's tile, hi row 1's). x is
// pre-offset to the tile start. Per lane: d += (v_lo*x0 + v_hi*x1) —
// bit-identical.
TEXT ·bcsr2x2Tile8AVX512(SB), NOSPLIT, $0-168
	MOVQ   val+0(FP), SI
	MOVQ   blkCol+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVQ   k+32(FP), R12
	SHLQ   $3, R12                 // k * 8: X row pitch in bytes
	VXORPD Z0, Z0, Z0              // row 0 tile
	VXORPD Z1, Z1, Z1              // row 1 tile
	TESTQ  CX, CX
	JZ     done

loop:
	MOVLQSX (DI), AX
	ADDQ    AX, AX                 // bj*2
	IMULQ   R12, AX                // byte offset of X row bj*2
	VMOVUPD (DX)(AX*1), Z2         // x0 tile
	ADDQ    R12, AX
	VMOVUPD (DX)(AX*1), Z3         // x1 tile

	VBROADCASTSD (SI), Z4          // v0
	VBROADCASTSD 8(SI), Z5         // v1
	VMULPD       Z2, Z4, Z4
	VMULPD       Z3, Z5, Z5
	VADDPD       Z5, Z4, Z4        // v0*x0 + v1*x1
	VADDPD       Z4, Z0, Z0

	VBROADCASTSD 16(SI), Z4        // v2
	VBROADCASTSD 24(SI), Z5        // v3
	VMULPD       Z2, Z4, Z4
	VMULPD       Z3, Z5, Z5
	VADDPD       Z5, Z4, Z4
	VADDPD       Z4, Z1, Z1

	ADDQ $32, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop

done:
	LEAQ    lo+40(FP), R8
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VZEROUPPER
	RET
