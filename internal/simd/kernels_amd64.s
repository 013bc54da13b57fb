#include "textflag.h"
#include "csrtile_amd64.h"

// AVX2/FMA micro-kernels for the SpMV inner loops.
//
// Conventions:
//   - Gathers load x through sign-extended 32-bit column indices
//     (VPMOVSXDQ + VGATHERQPD), or zero-extended 16-bit ones (VPMOVZXWQ)
//     in the U16 twins: each such kernel is one macro, instantiated for
//     both widths. The macros are defined ahead of the first TEXT (go
//     vet's asmdecl checks a #define's frame references against the TEXT
//     above it). The all-ones gather mask is rebuilt with
//     VPCMPEQQ before EVERY gather — the instruction zeroes its mask.
//   - The CSR kernels run CSRRowRangeGo's order, FMA into eight partial
//     sums (the pass macro of the k-wide one is in csrtile_amd64.h). The
//     others promise bit-identity to their scalar loops with separate
//     VMULPD/VADDPD (no FMA contraction) in the loops' order per element.
//   - VZEROUPPER before every RET that follows YMM use (SSE/AVX
//     transition stalls otherwise).

// csrHeadMask is a sliding window of dword lane masks: the 16 bytes at
// offset (4-n)*4 select the first n of four lanes, n in [0, 4].
DATA csrHeadMask<>+0(SB)/8, $0xffffffffffffffff
DATA csrHeadMask<>+8(SB)/8, $0xffffffffffffffff
DATA csrHeadMask<>+16(SB)/8, $0
DATA csrHeadMask<>+24(SB)/8, $0
GLOBL csrHeadMask<>(SB), RODATA|NOPTR, $32

// func csrRowRangeAVX2(rowPtr, idx *int32, val, x, y *float64, lo, hi int)
// func csrRowRangeAVX2U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)
//
// CSR rows [lo, hi) at k = 1 in the canonical order (CSRRowRangeGo's),
// one call per claimed chunk. The row loop carries end from row to row.
// Entry j of a row goes into partial sum j mod 8: p0..p3 in Y0, p4..p7 in
// Y1, both from +0. An 8-group gathers twice and FMAs into both; a
// remaining 4-group FMAs into Y0 and swaps the two, so the last 1-3
// entries (partial sums p4.. after a 4-group, p0.. without one) always
// land in Y0. They take one masked step: the indices under SHORTIDX, the
// values under VMASKMOVPD, the gather under the lane mask, an FMA into a
// copy of Y0 and VBLENDVPD back into its live lanes only. The reduction
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)) adds Y0 and Y1 lane-wise first,
// so the swap does not reorder it.
//
// CSR_ROW_RANGE_AVX2 is the body for both index widths: LOADX widens four
// indices to qwords, SCALE is the index size and QUAD the bytes of four
// indices. SHORTIDX loads the step's indices into Y2 while X3 still holds
// the dword lane mask: int32 indices through VPMASKMOVD (VPMOVSXDQ from
// memory is unmasked and would read 16 bytes past a short slice end),
// uint16 ones with one unmasked 8-byte load that the narrow array's
// zeroed slack keeps in bounds (AVX2 has no word-masked load).
#define SHORT_IDX_I32 VPMASKMOVD (DI)(AX*4), X3, X2; VPMOVSXDQ X2, Y2
#define SHORT_IDX_U16 VPMOVZXWQ (DI)(AX*2), Y2

#define CSR_ROW_RANGE_AVX2(LOADX, SCALE, QUAD, SHORTIDX) \
	MOVQ rowPtr+0(FP), R8 \
	MOVQ idx+8(FP), DI \
	MOVQ val+16(FP), SI \
	MOVQ x+24(FP), DX \
	MOVQ y+32(FP), R9 \
	MOVQ lo+40(FP), R10            /* i */ \
	MOVQ hi+48(FP), R11 \
	CMPQ R10, R11 \
	JGE  done \
	LEAQ csrHeadMask<>+16(SB), R13 \
	MOVLQSX (R8)(R10*4), R12       /* end = rowPtr[lo] */ \
row: \
	MOVQ    R12, AX                /* j = start */ \
	MOVLQSX 4(R8)(R10*4), R12      /* end = rowPtr[i+1] */ \
	MOVQ    R12, CX \
	SUBQ    AX, CX                 /* n */ \
	VXORPD  Y0, Y0, Y0             /* p0..p3 */ \
	VXORPD  Y1, Y1, Y1             /* p4..p7 */ \
	MOVQ    CX, BX \
	ANDQ    $-8, BX                /* n &^ 7 */ \
	JZ      group4 \
	ADDQ    AX, BX                 /* where the 8-groups end */ \
loop8: \
	LOADX      (DI)(AX*SCALE), Y2  /* idx[j..j+3] -> int64 */ \
	VPCMPEQQ   Y4, Y4, Y4          /* gather mask (all ones) */ \
	VXORPD     Y5, Y5, Y5 \
	VGATHERQPD Y4, (DX)(Y2*8), Y5  /* x[idx[j..j+3]] */ \
	VFMADD231PD (SI)(AX*8), Y5, Y0 /* p0..p3 += val * x */ \
	LOADX      QUAD(DI)(AX*SCALE), Y2 /* idx[j+4..j+7] */ \
	VPCMPEQQ   Y4, Y4, Y4 \
	VXORPD     Y6, Y6, Y6 \
	VGATHERQPD Y4, (DX)(Y2*8), Y6 \
	VFMADD231PD 32(SI)(AX*8), Y6, Y1 /* p4..p7 */ \
	ADDQ $8, AX \
	CMPQ AX, BX \
	JLT  loop8 \
group4: \
	TESTQ $4, CX                   /* one remaining 4-group? */ \
	JZ    tail \
	LOADX      (DI)(AX*SCALE), Y2 \
	VPCMPEQQ   Y4, Y4, Y4 \
	VXORPD     Y5, Y5, Y5 \
	VGATHERQPD Y4, (DX)(Y2*8), Y5 \
	VFMADD231PD (SI)(AX*8), Y5, Y0 \
	ADDQ $4, AX \
	VMOVAPD Y0, Y7 \
	VMOVAPD Y1, Y0                 /* p4..p7 take the tail */ \
	VMOVAPD Y7, Y1 \
tail: \
	ANDQ $3, CX                    /* entries left */ \
	JZ   reduce \
	NEGQ CX \
	VMOVDQU (R13)(CX*4), X3        /* their dword lanes */ \
	SHORTIDX                       /* indices (see above) */ \
	VPMOVSXDQ  X3, Y3              /* the same lanes as qwords */ \
	VMASKMOVPD (SI)(AX*8), Y3, Y6  /* masked val load */ \
	VMOVAPD    Y3, Y4              /* the gather clobbers its mask */ \
	VXORPD     Y5, Y5, Y5 \
	VGATHERQPD Y3, (DX)(Y2*8), Y5 \
	VMOVAPD    Y0, Y7 \
	VFMADD231PD Y5, Y6, Y7 \
	VBLENDVPD  Y4, Y7, Y0, Y0      /* the live lanes only */ \
reduce: \
	VADDPD       Y1, Y0, Y0        /* [p0+p4, p1+p5, p2+p6, p3+p7] */ \
	VEXTRACTF128 $1, Y0, X1 \
	VADDPD       X1, X0, X0 \
	VUNPCKHPD    X0, X0, X1 \
	VADDSD       X1, X0, X0 \
	VMOVSD X0, (R9)(R10*8)         /* y[i] */ \
	INCQ R10 \
	CMPQ R10, R11 \
	JLT  row \
	VZEROUPPER \
done: \
	RET

// func csrTileAVX2(rowPtr, idx *int32, val, x, y *float64, lo, hi, k int)
// func csrTileAVX2U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi, k int)
//
// CSR rows [lo, hi) of the k-wide product in the canonical order: for
// each row, CSR_TILE_YMM_PASS (csrtile_amd64.h) over four vectors at a
// time, the last k mod 4 under its lane mask. CSR_TILE_AVX2 is the body
// for both index widths: LOADS widens one index, SCALE is its size.
#define CSR_TILE_AVX2(LOADS, SCALE) \
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
	JLE  lanes \
	MOVQ $32, CX \
lanes: \
	CSR_TILE_YMM_PASS(LOADS, SCALE, group, rest, reduce) \
	ADDQ $32, R13 \
	CMPQ R13, R12 \
	JLT  pass \
	ADDQ R12, R9                   /* next y row */ \
	INCQ R10 \
	CMPQ R10, R11 \
	JLT  row \
	VZEROUPPER \
done: \
	RET

TEXT ·csrRowRangeAVX2(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX2(VPMOVSXDQ, 4, 16, SHORT_IDX_I32)

TEXT ·csrRowRangeAVX2U16(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX2(VPMOVZXWQ, 2, 8, SHORT_IDX_U16)

TEXT ·csrTileAVX2(SB), NOSPLIT, $0-64
	CSR_TILE_AVX2(MOVLQSX, 4)

TEXT ·csrTileAVX2U16(SB), NOSPLIT, $0-64
	CSR_TILE_AVX2(MOVWQZX, 2)

// func dotBcastTileAVX2(val *float64, idx *int32, x *float64, stride, n, k int) (dst [4]float64)
//
// Fused SpMM register tile of the ELL/HYB/SELL-C-sigma ladder:
// dst[t] = sum of val[j*stride] * X[idx[j*stride], t] for the 4 tile
// vectors t, returned by value. x is pre-offset to the tile start. Each
// lane is an independent sequential mul-then-add sum — bit-identical.
TEXT ·dotBcastTileAVX2(SB), NOSPLIT, $0-80
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
	VXORPD Y0, Y0, Y0
	TESTQ  CX, CX
	JZ     done
loop:
	MOVLQSX      (DI), AX
	IMULQ        R12, AX  // idx * k * 8
	VMOVUPD      (DX)(AX*1), Y1  // X tile row
	VBROADCASTSD (SI), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop
done:
	LEAQ    dst+48(FP), R8
	VMOVUPD Y0, (R8)
	VZEROUPPER
	RET

// func axpyGatherAVX2(y, val *float64, idx *int32, x *float64, n int)
//
// ELL slab column sweep: y[j] += val[j] * x[idx[j]]. One mul-then-add per
// element in element order — bit-identical to the scalar sweep.
TEXT ·axpyGatherAVX2(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), R8
	MOVQ val+8(FP), SI
	MOVQ idx+16(FP), DI
	MOVQ x+24(FP), DX
	MOVQ n+32(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   tail

loop4:
	VPMOVSXDQ  (DI)(AX*4), Y2
	VPCMPEQQ   Y4, Y4, Y4
	VXORPD     Y5, Y5, Y5
	VGATHERQPD Y4, (DX)(Y2*8), Y5
	VMULPD     (SI)(AX*8), Y5, Y5  // val * x
	VADDPD     (R8)(AX*8), Y5, Y5  // + y
	VMOVUPD    Y5, (R8)(AX*8)
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  loop4

tail:
	CMPQ AX, CX
	JGE  done
	MOVLQSX (DI)(AX*4), R9
	VMOVSD  (SI)(AX*8), X2
	VMULSD  (DX)(R9*8), X2, X2
	VADDSD  (R8)(AX*8), X2, X2
	VMOVSD  X2, (R8)(AX*8)
	ADDQ $1, AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func laneDot4AVX2(val *float64, idx *int32, x *float64, stride, n int) (sums [4]float64)
//
// SELL-C-sigma chunk sweep: four independent lane sums accumulated over n
// strided columns, returned by value. Each lane accumulates sequentially
// in ascending column order — bit-identical to the scalar lane loop.
TEXT ·laneDot4AVX2(SB), NOSPLIT, $0-72
	MOVQ   val+0(FP), SI
	MOVQ   idx+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   stride+24(FP), R10
	MOVQ   n+32(FP), CX
	VXORPD Y0, Y0, Y0
	MOVQ   R10, R11
	SHLQ   $3, R10                 // stride * 8 (val step, bytes)
	SHLQ   $2, R11                 // stride * 4 (idx step, bytes)
	TESTQ  CX, CX
	JZ     done

loop:
	VPMOVSXDQ  (DI), Y2
	VPCMPEQQ   Y4, Y4, Y4
	VXORPD     Y5, Y5, Y5
	VGATHERQPD Y4, (DX)(Y2*8), Y5
	VMULPD     (SI), Y5, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop

done:
	LEAQ    sums+40(FP), R8
	VMOVUPD Y0, (R8)
	VZEROUPPER
	RET

// func bcsr2x2AVX2(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)
//
// BCSR block-row sweep over n interior 2x2 blocks. Per block the scalar
// kernel computes s += (v_lo*x0 + v_hi*x1); VHADDPD reproduces exactly
// that pairing — bit-identical.
TEXT ·bcsr2x2AVX2(SB), NOSPLIT, $0-48
	MOVQ   val+0(FP), SI
	MOVQ   blkCol+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPD X0, X0, X0              // [s0, s1]
	TESTQ  CX, CX
	JZ     done

loop:
	MOVLQSX (DI), AX               // bj
	SHLQ    $4, AX                 // bj*2 doubles = bj*16 bytes
	VMOVUPD (DX)(AX*1), X1         // [x0, x1]
	VMULPD  (SI), X1, X2           // [v0*x0, v1*x1]
	VMULPD  16(SI), X1, X3         // [v2*x0, v3*x1]
	VHADDPD X3, X2, X2             // [v0x0+v1x1, v2x0+v3x1]
	VADDPD  X2, X0, X0
	ADDQ $32, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop

done:
	VMOVSD    X0, s0+32(FP)
	VPERMILPD $1, X0, X0
	VMOVSD    X0, s1+40(FP)
	RET

// func bcsr2x2TileAVX2(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64)
//
// BCSR SpMM tile: 2 block rows x 4 tile vectors over n interior 2x2
// blocks, returned by value (lo is block row 0's tile, hi row 1's). x is
// pre-offset to the tile start. Per lane: d += (v_lo*x0 + v_hi*x1) —
// bit-identical.
TEXT ·bcsr2x2TileAVX2(SB), NOSPLIT, $0-104
	MOVQ   val+0(FP), SI
	MOVQ   blkCol+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVQ   k+32(FP), R12
	SHLQ   $3, R12                 // k * 8: X row pitch in bytes
	VXORPD Y0, Y0, Y0              // row 0 tile
	VXORPD Y1, Y1, Y1              // row 1 tile
	TESTQ  CX, CX
	JZ     done

loop:
	MOVLQSX (DI), AX
	ADDQ    AX, AX                 // bj*2
	IMULQ   R12, AX                // byte offset of X row bj*2
	VMOVUPD (DX)(AX*1), Y2         // x0 tile
	ADDQ    R12, AX
	VMOVUPD (DX)(AX*1), Y3         // x1 tile

	VBROADCASTSD (SI), Y4          // v0
	VBROADCASTSD 8(SI), Y5         // v1
	VMULPD       Y2, Y4, Y4
	VMULPD       Y3, Y5, Y5
	VADDPD       Y5, Y4, Y4        // v0*x0 + v1*x1
	VADDPD       Y4, Y0, Y0

	VBROADCASTSD 16(SI), Y4        // v2
	VBROADCASTSD 24(SI), Y5        // v3
	VMULPD       Y2, Y4, Y4
	VMULPD       Y3, Y5, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y1, Y1

	ADDQ $32, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop

done:
	LEAQ    lo+40(FP), R8
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VZEROUPPER
	RET
