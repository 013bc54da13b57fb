#include "textflag.h"

// AVX-512 (BW, VL, VBMI2) kernels of the multiply codec: the block
// scanner under the request decoder and the digit and layout passes
// under the response encoder. VZEROUPPER before every RET.

// func scanPlainAVX512(b *byte, i, limit int, x *float64, n int, pow *[2]uint64) (count, end int)
//
// One literal a step, each from one 32-byte load at b+i, while i <= limit
// and count < n. The literal runs to the load's first ',' and must match
// -?(0|[1-9][0-9]*)(\.[0-9]+)? with at most 19 significant digits, else
// the scan stops on it. Its digits from the first nonzero one are
// compressed to the front (VPCOMPRESSB), expanded to end at byte 24
// (VPEXPANDB), and folded pairwise into three 8-digit groups: bytes to
// 2-digit words (VPMADDUBSW), words to 4-digit dwords (VPMADDWD), dwords
// to words again (VPMOVDW) and to 8-digit dwords (VPMADDWD). The mantissa
// and the negated count of fraction digits then go through
// decimal.Number.Float's Eisel–Lemire step by step, pow pointing at
// 10^0's entry of its table, into x[count]; a literal Float declines
// stops the scan too.
TEXT ·scanPlainAVX512(SB), NOSPLIT, $0-64
	MOVQ b+0(FP), SI
	MOVQ i+8(FP), R8
	MOVQ x+24(FP), DI
	XORQ CX, CX
	MOVL $0x30303030, AX
	VPBROADCASTD AX, Y10 // '0'
	MOVL $0x0a0a0a0a, AX
	VPBROADCASTD AX, Y11 // 10
	MOVL $0x2e2e2e2e, AX
	VPBROADCASTD AX, Y12 // '.'
	MOVL $0x2d2d2d2d, AX
	VPBROADCASTD AX, Y13 // '-'
	MOVL $0x2c2c2c2c, AX
	VPBROADCASTD AX, Y14 // ','
	MOVL $0x010a010a, AX
	VPBROADCASTD AX, Y15 // bytes 10, 1
	MOVL $0x00010064, AX
	VPBROADCASTD AX, Y9 // words 100, 1
	MOVL $0x00012710, AX
	VPBROADCASTD AX, X8 // words 10000, 1

next:
	CMPQ CX, n+32(FP)
	JGE  done
	CMPQ R8, limit+16(FP)
	JGT  done
	VMOVDQU  (SI)(R8*1), Y0
	VPCMPEQB Y14, Y0, K1
	KMOVD    K1, R11
	TESTL    R11, R11
	JZ       done
	TZCNTL   R11, R11         // c: the literal's length
	VPSUBB   Y10, Y0, Y1      // digit values
	VPCMPUB  $1, Y11, Y1, K2  // digits
	VPCMPEQB Y12, Y0, K3      // points
	VPCMPEQB Y13, Y0, K4      // minus signs
	VPTESTNMB Y1, Y1, K5      // zeros
	KMOVD    K2, BX
	KMOVD    K3, DX
	KMOVD    K4, R12
	KMOVD    K5, R13
	MOVL     $-1, R14
	BZHIL    R11, R14, R14    // the literal's bytes
	LEAQ     1(R8)(R11*1), R11 // where the next literal starts
	ANDL     R14, BX          // D
	ANDL     R14, DX          // P
	ANDL     R14, R12         // M
	ANDL     R14, R13         // Z
	MOVL     BX, AX           // every byte a digit, the point or the sign
	ORL      DX, AX
	ORL      R12, AX
	CMPL     AX, R14
	JNE      done
	CMPL     R12, $1          // a sign only first: M is the first digit's place s
	JA       done
	LEAL     1(R12), R15      // 1<<s
	TESTL    R15, BX          // byte s is a digit
	JZ       done
	BLSRL    DX, AX           // at most one point
	JNZ      done
	LEAL     1(R14), AX
	SHRL     $1, AX           // the last byte
	TESTL    AX, DX           // is not the point
	JNZ      done
	ANDL     R13, R15         // a leading zero is followed by the point or the end
	ADDL     R15, R15
	TESTL    R15, BX
	JNZ      done
	ANDNL    BX, R13, AX      // nonzero digits
	BLSIL    AX, AX
	NEGL     AX
	ANDL     BX, AX           // significant digits: from the first nonzero one
	POPCNTL  AX, R15          // nd
	CMPL     R15, $19
	JA       done
	KMOVD    AX, K6
	VPCOMPRESSB.Z Y1, K6, Y2
	MOVL     $24, AX
	SUBL     R15, AX
	MOVL     $0xffffff, R13
	SHLXL    AX, R13, R13
	ANDL     $0xffffff, R13   // places [24-nd, 24)
	KMOVD    R13, K7
	VPEXPANDB.Z Y2, K7, Y3
	VPMADDUBSW Y15, Y3, Y3    // 2-digit words
	VPMADDWD Y9, Y3, Y3       // 4-digit dwords
	VPMOVDW  Y3, X3
	VPMADDWD X8, X3, X3       // 8-digit groups g0, g1, g2
	VMOVQ    X3, R13
	VPEXTRD  $2, X3, R15
	MOVL     R13, R14         // g0
	SHRQ     $32, R13         // g1
	IMUL3Q   $100000000, R13, R13
	ADDQ     R15, R13
	MOVQ     $10000000000000000, R15
	IMULQ    R15, R14
	ADDQ     R14, R13         // the mantissa
	MOVL     DX, AX           // the exponent: minus the digits past the point
	NEGL     AX
	ANDL     BX, AX
	POPCNTL  AX, AX
	NEGQ     AX

	// Eisel–Lemire: R13 mantissa, AX exponent, R12 sign.
	MOVQ    R12, R15
	SHLQ    $63, R15          // the sign bit
	TESTQ   R13, R13
	JZ      store             // ±0
	IMUL3Q  $217706, AX, R14
	SARQ    $16, R14
	ADDQ    $(64+1023), R14   // the binary exponent, less z and 1^top
	SHLQ    $4, AX
	ADDQ    pow+40(FP), AX
	MOVQ    AX, BX            // 10^exponent's entry
	BSRQ    R13, DX
	XORQ    $63, DX           // z: the mantissa's leading zeros
	SUBQ    DX, R14
	SHLXQ   DX, R13, R13      // m
	MOVQ    (BX), AX
	MULQ    R13               // DX:AX = hi:lo
	MOVQ    DX, R9            // hi
	MOVL    DX, R10
	ANDL    $0x1ff, R10
	CMPL    R10, $0x1ff
	JNE     rounded           // the rounding bits are not all ones
	LEAQ    (AX)(R13*1), R10
	CMPQ    R10, R13
	JAE     rounded           // or lo + m does not carry
	MOVQ    AX, R10           // lo
	MOVQ    8(BX), AX
	MULQ    R13               // DX:AX = yhi:ylo
	ADDQ    DX, R10
	ADCQ    $0, R9            // hi:lo += yhi
	MOVL    R9, DX
	ANDL    $0x1ff, DX
	CMPL    DX, $0x1ff
	JNE     second
	CMPQ    R10, $-1
	JNE     second
	ADDQ    R13, AX
	JCS     done              // ylo + m carries: undecided
second:
	MOVQ    R10, AX

rounded:
	MOVQ    R9, DX
	SHRQ    $63, DX           // top
	LEAQ    9(DX), BX
	SHRXQ   BX, R9, BX        // hi >> (top+9)
	XORQ    $1, DX
	SUBQ    DX, R14
	TESTQ   AX, AX
	JNZ     even
	TESTL   $0x1ff, R9
	JNZ     even
	MOVL    BX, DX
	ANDL    $3, DX
	CMPL    DX, $1
	JEQ     done              // a tie the truncation may hide
even:
	MOVQ    BX, DX
	ANDQ    $1, DX
	ADDQ    DX, BX
	SHRQ    $1, BX            // the 54th bit rounded off
	MOVQ    BX, DX
	SHRQ    $53, DX           // and carried into a 54th
	SHRXQ   DX, BX, BX
	ADDQ    DX, R14
	LEAQ    -1(R14), DX
	CMPQ    DX, $0x7fe
	JAE     done              // subnormal or infinite
	SHLQ    $52, R14
	MOVQ    $0xfffffffffffff, DX
	ANDQ    DX, BX
	ORQ     BX, R15
	ORQ     R14, R15

store:
	MOVQ     R15, (DI)
	ADDQ     $8, DI
	INCQ     CX
	MOVQ     R11, R8
	JMP      next

done:
	MOVQ CX, count+48(FP)
	MOVQ R8, end+56(FP)
	VZEROUPPER
	RET

// func appendPlainAVX512(dst, grp *byte, lay *uint32, n int) (written int)
//
// Writes n plain decimals to dst, each followed by ','. Entry j is
// ±d·10^-frac with lay[j] = frac | neg<<8 (higher bits ignored) and
// d > 0's digits in three 8-digit groups at grp[24j:], little-endian
// words below 10^8. First every group becomes eight ASCII digits in place
// (DIGITS8: the halving of serve's digits8 in 64-bit lanes, eight words a
// step and the last 3n mod 8 under an opmask). Then each entry is a '-'
// store, kept for a negative, and one 32-byte store: its digits, loaded
// from the first that is not '0', are expanded (VPEXPANDB) over the places
// they take into "0.000000" — what 0.000ddd keeps of it stays — and two
// byte stores put the point among them and the comma after. Each entry
// stores up to 33 bytes past its start: dst has room for 26n + 32.
//
// The 4-digit halves split by a 32x32-bit multiply (d·0xD1B71759>>45 is
// d/10^4 for any 32-bit d), the 2-digit and 1-digit ones by a 16-bit
// multiply-high (x·5243>>19 is x/100 below 43 699, x·6592>>16 is x/10
// below 179).
#define DIGITS8(R) \
	VPMULUDQ Z10, R, Z1 \
	VPSRLQ   $45, Z1, Z1      /* q = d / 10^4 */ \
	VPMULUDQ Z11, Z1, Z2 \
	VPSUBQ   Z2, R, R \
	VPSLLQ   $32, R, R \
	VPORQ    Z1, R, R         /* q | (d - 10^4 q)<<32 */ \
	VPMULHUW Z12, R, Z1 \
	VPSRLW   $3, Z1, Z1       /* h = x / 100 */ \
	VPMULLW  Z13, Z1, Z2 \
	VPSUBW   Z2, R, R \
	VPSLLD   $16, R, R \
	VPORD    Z1, R, R         /* h | (x - 100 h)<<16 */ \
	VPMULHUW Z14, R, Z1       /* t = x / 10 */ \
	VPMULLW  Z15, Z1, Z2 \
	VPSUBW   Z2, R, R \
	VPSLLW   $8, R, R \
	VPORQ    Z1, R, R         /* t | (x - 10 t)<<8 */ \
	VPORQ    Z9, R, R         /* ASCII */

TEXT ·appendPlainAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ grp+8(FP), SI
	MOVQ lay+16(FP), R8
	MOVQ n+24(FP), R9
	MOVL $0xd1b71759, AX
	VPBROADCASTQ AX, Z10
	MOVL $10000, AX
	VPBROADCASTQ AX, Z11
	MOVL $5243, AX
	VPBROADCASTW AX, Z12
	MOVL $100, AX
	VPBROADCASTW AX, Z13
	MOVL $6592, AX
	VPBROADCASTW AX, Z14
	MOVL $10, AX
	VPBROADCASTW AX, Z15
	MOVQ $0x3030303030303030, AX
	VPBROADCASTQ AX, Z9
	LEAQ (R9)(R9*2), CX       // 3n words
	MOVQ SI, DX

digits:
	CMPQ CX, $8
	JLT  digitsTail
	VMOVDQU64 (DX), Z0
	DIGITS8(Z0)
	VMOVDQU64 Z0, (DX)
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  digits

digitsTail:
	TESTQ CX, CX
	JZ    layout
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	VMOVDQU64.Z (DX), K1, Z0
	DIGITS8(Z0)
	VMOVDQU64 Z0, K1, (DX)

layout:
	VPBROADCASTD X9, Y4 // '0'
	MOVQ $0x3030303030302e30, AX
	VPBROADCASTQ AX, Y8 // "0.000000" a word
	MOVQ DI, R15
	XORQ R10, R10

entry:
	CMPQ R10, R9
	JGE  out
	VMOVDQU   (SI), Y1
	VPCMPUB   $4, Y4, Y1, K1  // digits other than '0'
	KMOVD     K1, BX
	TZCNTL    BX, BX          // 24 - nd
	VMOVDQU   (SI)(BX*1), Y1  // the digits, from byte 0
	NEGL      BX
	ADDL      $24, BX         // nd
	MOVL      (R8)(R10*4), AX
	MOVBLZX   AX, CX          // frac
	SHRL      $8, AX
	ANDL      $1, AX          // the sign's length
	MOVB      $0x2d, (DI)     // '-', kept where it is 1
	ADDQ      AX, DI
	LEAL      2(CX), DX       // zeros: "0." and the zeros before the digits,
	SUBL      BX, DX
	XORL      R11, R11
	CMPL      CX, BX
	CMOVLGE   DX, R11         // where frac >= nd
	LEAL      -1(CX), DX      // sep: a point among the digits, where 0 < frac < nd
	LEAL      -1(BX), R12
	CMPL      DX, R12
	SBBL      R13, R13
	NEGL      R13
	LEAL      (R11)(BX*1), R14
	ADDL      R13, R14        // L: the entry's length past its sign
	LEAL      (R11)(BX*1), R12
	SUBL      CX, R12         // the point's place, or L without one
	TESTL     R13, R13
	CMOVLEQ   R14, R12
	MOVL      $-1, DX
	BZHIL     R14, DX, CX
	BZHIL     R11, DX, DX
	ANDNL     CX, DX, CX      // [zeros, L)
	BTRL      R12, CX         // less the point: where the digits go
	KMOVD     CX, K2
	VMOVDQU   Y8, Y2
	VPEXPANDB Y1, K2, Y2
	VMOVDQU   Y2, (DI)
	MOVB      $0x2e, (DI)(R12*1)
	MOVB      $0x2c, (DI)(R14*1)
	LEAQ      1(DI)(R14*1), DI
	ADDQ      $24, SI
	INCQ      R10
	JMP       entry

out:
	SUBQ R15, DI
	MOVQ DI, written+32(FP)
	VZEROUPPER
	RET
