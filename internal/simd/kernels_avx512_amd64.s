#include "textflag.h"

// AVX-512F micro-kernels for the SpMV inner loops: 8-lane ZMM ports of
// the AVX2 kernels in kernels_amd64.s.
//
// Conventions (on top of the AVX2 file's):
//   - Gathers load x through sign-extended 32-bit column indices
//     (VPMOVSXDQ + VGATHERQPD), or zero-extended 16-bit ones (VPMOVZXWQ)
//     in the U16 twins, under an opmask rebuilt before EVERY
//     gather — the instruction zeroes its mask as it completes.
//   - Lane-unaligned tails use opmask predication: the tail mask is
//     (1<<rem)-1, masked loads are zeroing (.Z) so dead lanes contribute
//     exact zeros, and masked-off elements are never dereferenced (EVEX
//     fault suppression) — no scalar remainder loops.
//   - Kernels that promise bit-identity to the scalar path use separate
//     VMULPD/VADDPD (no FMA contraction) and preserve the scalar
//     accumulation order per output element.
//   - VZEROUPPER before every RET that follows ZMM/YMM use.

// Permutation controls for bcsr2x2AVX512 (four 2x2 blocks per
// iteration). bcsrDup expands four block columns to gather index pairs;
// bcsrPairA/B expand the gathered [x0 x1] pairs to the per-block
// [x0 x1 x0 x1] pattern the interleaved val layout multiplies against.
DATA bcsrDup<>+0(SB)/8, $0
DATA bcsrDup<>+8(SB)/8, $0
DATA bcsrDup<>+16(SB)/8, $1
DATA bcsrDup<>+24(SB)/8, $1
DATA bcsrDup<>+32(SB)/8, $2
DATA bcsrDup<>+40(SB)/8, $2
DATA bcsrDup<>+48(SB)/8, $3
DATA bcsrDup<>+56(SB)/8, $3
GLOBL bcsrDup<>(SB), RODATA|NOPTR, $64

DATA bcsrOdd<>+0(SB)/8, $0
DATA bcsrOdd<>+8(SB)/8, $1
DATA bcsrOdd<>+16(SB)/8, $0
DATA bcsrOdd<>+24(SB)/8, $1
DATA bcsrOdd<>+32(SB)/8, $0
DATA bcsrOdd<>+40(SB)/8, $1
DATA bcsrOdd<>+48(SB)/8, $0
DATA bcsrOdd<>+56(SB)/8, $1
GLOBL bcsrOdd<>(SB), RODATA|NOPTR, $64

DATA bcsrPairA<>+0(SB)/8, $0
DATA bcsrPairA<>+8(SB)/8, $1
DATA bcsrPairA<>+16(SB)/8, $0
DATA bcsrPairA<>+24(SB)/8, $1
DATA bcsrPairA<>+32(SB)/8, $2
DATA bcsrPairA<>+40(SB)/8, $3
DATA bcsrPairA<>+48(SB)/8, $2
DATA bcsrPairA<>+56(SB)/8, $3
GLOBL bcsrPairA<>(SB), RODATA|NOPTR, $64

DATA bcsrPairB<>+0(SB)/8, $4
DATA bcsrPairB<>+8(SB)/8, $5
DATA bcsrPairB<>+16(SB)/8, $4
DATA bcsrPairB<>+24(SB)/8, $5
DATA bcsrPairB<>+32(SB)/8, $6
DATA bcsrPairB<>+40(SB)/8, $7
DATA bcsrPairB<>+48(SB)/8, $6
DATA bcsrPairB<>+56(SB)/8, $7
GLOBL bcsrPairB<>(SB), RODATA|NOPTR, $64

// func csrRowRangeAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi int)
// func csrRowRangeAVX512U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)
//
// CSR rows [lo, hi): y[i] = sum(val[j] * x[idx[j]]) over row i's entries,
// one call per claimed chunk. The row loop carries end from row to row. A
// row of at most 8 entries (empty included) is one masked step — opmask
// (1<<n)-1, zeroing index and value loads, a gather into a zeroed register
// so dead lanes multiply exact 0*0, VMULPD — with no trip-count branch; a
// longer row runs sixteen partial sums in two ZMM accumulators, FMA, and
// an opmask tail. Both reduce pairwise: reassociates vs the scalar
// sequential sum (documented bound), bit-identical to it for n <= 2.
//
// CSR_ROW_RANGE_AVX512 is the body for both index widths: LOADX (LOADXZ
// its zeroing form) widens eight indices to qwords, SCALE is the index
// size and OCT the bytes of eight indices. The masked loads need no slack
// at either width: EVEX fault suppression skips the dead elements.
#define CSR_ROW_RANGE_AVX512(LOADX, LOADXZ, SCALE, OCT) \
	MOVQ rowPtr+0(FP), R8 \
	MOVQ idx+8(FP), DI \
	MOVQ val+16(FP), SI \
	MOVQ x+24(FP), DX \
	MOVQ y+32(FP), R9 \
	MOVQ lo+40(FP), R10            /* i */ \
	MOVQ hi+48(FP), R11 \
	CMPQ R10, R11 \
	JGE  done \
	MOVLQSX (R8)(R10*4), R12       /* end = rowPtr[lo] */ \
row: \
	MOVQ    R12, AX                /* j = start */ \
	MOVLQSX 4(R8)(R10*4), R12      /* end = rowPtr[i+1] */ \
	MOVQ    R12, CX \
	SUBQ    AX, CX                 /* n */ \
	CMPQ    CX, $8 \
	JGT     long \
	MOVL    $1, BX \
	SHLL    CX, BX \
	DECL    BX                     /* (1<<n)-1 */ \
	KMOVW   BX, K2 \
	LOADXZ  (DI)(AX*SCALE), K2, Z2 /* masked idx load (fault-suppressed) */ \
	KMOVW   K2, K3                 /* gather clobbers its mask */ \
	VXORPD  Z5, Z5, Z5 \
	VGATHERQPD (DX)(Z2*8), K3, Z5 \
	VMOVUPD.Z  (SI)(AX*8), K2, Z6  /* masked val load: dead lanes 0 */ \
	VMULPD  Z5, Z6, Z0             /* dead lanes are 0*0 */ \
reduce: \
	VEXTRACTF64X4 $1, Z0, Y1 \
	VADDPD        Y1, Y0, Y0 \
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
	RET \
long: \
	VXORPD Z0, Z0, Z0              /* acc0 */ \
	VXORPD Z1, Z1, Z1              /* acc1 */ \
	MOVQ   CX, BX \
	ANDQ   $-16, BX                /* n &^ 15 */ \
	JZ     group8 \
	ADDQ   AX, BX                  /* where the 16-groups end */ \
loop16: \
	LOADX      (DI)(AX*SCALE), Z2  /* idx[j..j+7] -> int64 */ \
	KXNORW     K1, K1, K1          /* gather mask (all ones) */ \
	VXORPD     Z5, Z5, Z5 \
	VGATHERQPD (DX)(Z2*8), K1, Z5  /* x[idx[j..j+7]] */ \
	VFMADD231PD (SI)(AX*8), Z5, Z0 /* acc0 += val * x */ \
	LOADX      OCT(DI)(AX*SCALE), Z2 /* idx[j+8..j+15] */ \
	KXNORW     K1, K1, K1 \
	VXORPD     Z6, Z6, Z6 \
	VGATHERQPD (DX)(Z2*8), K1, Z6 \
	VFMADD231PD 64(SI)(AX*8), Z6, Z1 \
	ADDQ $16, AX \
	CMPQ AX, BX \
	JLT  loop16 \
group8: \
	TESTQ $8, CX                   /* one remaining 8-group? */ \
	JZ    tail \
	LOADX      (DI)(AX*SCALE), Z2 \
	KXNORW     K1, K1, K1 \
	VXORPD     Z5, Z5, Z5 \
	VGATHERQPD (DX)(Z2*8), K1, Z5 \
	VFMADD231PD (SI)(AX*8), Z5, Z0 \
	ADDQ $8, AX \
tail: \
	ANDL $7, CX                    /* rem = n & 7 */ \
	JZ   sum \
	MOVL $1, BX \
	SHLL CX, BX \
	DECL BX                        /* (1<<rem)-1 */ \
	KMOVW BX, K2 \
	LOADXZ (DI)(AX*SCALE), K2, Z2 \
	KMOVW K2, K3 \
	VXORPD     Z5, Z5, Z5 \
	VGATHERQPD (DX)(Z2*8), K3, Z5 \
	VMOVUPD.Z  (SI)(AX*8), K2, Z6 \
	VFMADD231PD Z5, Z6, Z0         /* dead lanes contribute 0*0 */ \
sum: \
	VADDPD Z1, Z0, Z0 \
	JMP    reduce

// func dotBcastTile8AVX512(val *float64, idx *int32, x *float64, stride, n, k int) (dst [8]float64)
// func dotBcastTile8AVX512U16(val *float64, idx *uint16, x *float64, stride, n, k int) (dst [8]float64)
//
// Fused SpMM register tile: dst[t] = sum of val[j*stride] * X[idx[j*stride], t]
// for the 8 tile vectors t, returned by value. x is pre-offset to the
// tile start. Each lane is an independent sequential mul-then-add sum —
// bit-identical. DOT_BCAST_TILE8_AVX512 is the body for both index
// widths: LOADS widens one index, LOG2 is the log2 of its size.
#define DOT_BCAST_TILE8_AVX512(LOADS, LOG2) \
	MOVQ   val+0(FP), SI \
	MOVQ   idx+8(FP), DI \
	MOVQ   x+16(FP), DX \
	MOVQ   stride+24(FP), R10 \
	MOVQ   n+32(FP), CX \
	MOVQ   k+40(FP), R12 \
	SHLQ   $3, R12                 /* k * 8: X row pitch in bytes */ \
	MOVQ   R10, R11 \
	SHLQ   $3, R10                 /* stride * 8 */ \
	SHLQ   $LOG2, R11              /* stride * index size */ \
	VXORPD Z0, Z0, Z0 \
	TESTQ  CX, CX \
	JZ     done \
loop: \
	LOADS        (DI), AX \
	IMULQ        R12, AX           /* idx * k * 8 */ \
	VMOVUPD      (DX)(AX*1), Z1    /* X tile row (8 vectors) */ \
	VBROADCASTSD (SI), Z2 \
	VMULPD       Z1, Z2, Z2 \
	VADDPD       Z2, Z0, Z0 \
	ADDQ R10, SI \
	ADDQ R11, DI \
	DECQ CX \
	JNZ  loop \
done: \
	LEAQ    dst+48(FP), R8 \
	VMOVUPD Z0, (R8) \
	VZEROUPPER \
	RET

TEXT ·csrRowRangeAVX512(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX512(VPMOVSXDQ, VPMOVSXDQ.Z, 4, 32)

TEXT ·csrRowRangeAVX512U16(SB), NOSPLIT, $0-56
	CSR_ROW_RANGE_AVX512(VPMOVZXWQ, VPMOVZXWQ.Z, 2, 16)

TEXT ·dotBcastTile8AVX512(SB), NOSPLIT, $0-112
	DOT_BCAST_TILE8_AVX512(MOVLQSX, 2)

TEXT ·dotBcastTile8AVX512U16(SB), NOSPLIT, $0-112
	DOT_BCAST_TILE8_AVX512(MOVWQZX, 1)

// func axpyGatherAVX512(y, val *float64, idx *int32, x *float64, n int)
//
// ELL slab column sweep: y[j] += val[j] * x[idx[j]]. One mul-then-add per
// element in element order, masked tail — bit-identical to the scalar
// sweep.
TEXT ·axpyGatherAVX512(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), R8
	MOVQ val+8(FP), SI
	MOVQ idx+16(FP), DI
	MOVQ x+24(FP), DX
	MOVQ n+32(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop8:
	VPMOVSXDQ  (DI)(AX*4), Z2
	KXNORW     K1, K1, K1
	VXORPD     Z5, Z5, Z5
	VGATHERQPD (DX)(Z2*8), K1, Z5
	VMULPD     (SI)(AX*8), Z5, Z5  // val * x
	VADDPD     (R8)(AX*8), Z5, Z5  // + y
	VMOVUPD    Z5, (R8)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  loop8

tail:
	SUBQ AX, CX                    // rem (0..7)
	JZ   done
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K2
	VPMOVSXDQ.Z (DI)(AX*4), K2, Z2
	KMOVW K2, K3
	VXORPD     Z5, Z5, Z5
	VGATHERQPD (DX)(Z2*8), K3, Z5
	VMOVUPD.Z  (SI)(AX*8), K2, Z6
	VMULPD     Z5, Z6, Z5          // val * x
	VMOVUPD.Z  (R8)(AX*8), K2, Z7
	VADDPD     Z7, Z5, Z5
	VMOVUPD    Z5, K2, (R8)(AX*8)  // masked store: live lanes only

done:
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

// func bcsr2x2AVX512(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)
//
// BCSR block-row sweep over n interior 2x2 blocks, four blocks per
// iteration: one 8-lane gather fetches the four [x0 x1] pairs, two
// permutes expand them against the interleaved block values, and two
// FMA accumulators carry [v0x0, v1x1, v2x0, v3x1] per block. Unlike the
// AVX2 kernel this reassociates across blocks and fuses rounding
// (documented ULP tolerance; KernelImpl gates the test policy).
TEXT ·bcsr2x2AVX512(SB), NOSPLIT, $0-48
	MOVQ   val+0(FP), SI
	MOVQ   blkCol+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPD X0, X0, X0              // [s0, s1]
	MOVQ   CX, BX
	ANDQ   $-4, BX                 // grouped block count
	SUBQ   BX, CX                  // tail block count (0..3)
	TESTQ  BX, BX
	JZ     tail

	VMOVUPD bcsrDup<>(SB), Z10
	VMOVUPD bcsrOdd<>(SB), Z11
	VMOVUPD bcsrPairA<>(SB), Z12
	VMOVUPD bcsrPairB<>(SB), Z13
	VXORPD  Z8, Z8, Z8             // acc blocks 4b, 4b+1
	VXORPD  Z9, Z9, Z9             // acc blocks 4b+2, 4b+3

loop4:
	VPMOVSXDQ (DI), Y2             // c0..c3 -> int64 (upper ZMM half zero)
	VPERMQ    Z2, Z10, Z3          // [c0 c0 c1 c1 c2 c2 c3 c3]
	VPSLLQ    $1, Z3, Z3           // *2: x element columns
	VPADDQ    Z11, Z3, Z3          // + [0 1 0 1 ...]
	KXNORW    K1, K1, K1
	VXORPD    Z4, Z4, Z4
	VGATHERQPD (DX)(Z3*8), K1, Z4  // [x0b0 x1b0 x0b1 x1b1 x0b2 x1b2 x0b3 x1b3]

	VPERMQ      Z4, Z12, Z5        // [x0 x1 x0 x1] for blocks 0,1
	VFMADD231PD (SI), Z5, Z8       // += [v0x0 v1x1 v2x0 v3x1 | block 1]
	VPERMQ      Z4, Z13, Z6        // same for blocks 2,3
	VFMADD231PD 64(SI), Z6, Z9

	ADDQ $128, SI                  // 4 blocks * 4 doubles
	ADDQ $16, DI                   // 4 block columns
	SUBQ $4, BX
	JNZ  loop4

	// Reduce the two ZMM accumulators to the [s0, s1] pair: lanes 0,1
	// (and 4,5) carry row 0 terms, lanes 2,3 (and 6,7) row 1.
	VADDPD        Z9, Z8, Z8
	VEXTRACTF64X4 $1, Z8, Y9
	VADDPD        Y9, Y8, Y8       // [r0 r0' r1 r1']
	VEXTRACTF128  $1, Y8, X9       // [r1 r1']
	VHADDPD       X9, X8, X0       // [s0, s1]

tail:
	TESTQ CX, CX
	JZ    done

tailloop:
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
	JNZ  tailloop

done:
	VMOVSD    X0, s0+32(FP)
	VPERMILPD $1, X0, X0
	VMOVSD    X0, s1+40(FP)
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
