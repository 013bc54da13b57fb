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
// ±d·10^-frac with lay[j] = frac | neg<<8 | drop<<16 (higher bits
// ignored) and d·10^drop > 0's digits in three 8-digit groups at
// grp[24j:], little-endian words below 10^8; its last drop digits are
// not written. First every group becomes eight ASCII digits in place
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
	TZCNTL    BX, BX          // 24 - nd - drop
	VMOVDQU   (SI)(BX*1), Y1  // the digits, from byte 0
	MOVL      (R8)(R10*4), AX
	MOVL      AX, DX
	SHRL      $16, DX
	MOVBLZX   DX, DX          // drop
	NEGL      BX
	ADDL      $24, BX
	SUBL      DX, BX          // nd
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

// func shortestAVX512(y *float64, grp *byte, lay *uint32, n int, pow5 *[24]uint64)
//
// For n entries of y, eight to a ZMM step (the last step's load masked),
// the shortest-digit search of serve's shortest in 64-bit lanes, written
// as appendPlainAVX512 reads it: lay[j] = frac | neg<<8 | drop<<16 and the
// three 8-digit groups of d·10^drop at grp[24j:]. A lane outside
// 1e-6 <= |v| < 2^53, an integer, or one that drops eight digits or more
// gets lay[j] = 0 (every other has frac >= 1). Every step stores eight
// entries: lay and grp have room for n rounded up to 8.
//
// Scaled by 10^q, one unit of 2^e2 is just over 1 and the interval is
// (c ± 1)·p/2^s (c = 2·mant, p = 5^q). IFMA takes mant·p as H·2^52 + L,
// so mid = cp/2^s is H·2^(53-s) + 2L>>s, its fraction f = 2L mod 2^s,
// and mid - lo = (p-f-1)>>s and hi - mid = (f+p)>>s: a and b, each at
// most ten. The group split is a double's quotient corrected by one. Then
// drop = the largest k <= 7 with a multiple of 10^k in [mid-a, mid+b],
// tested on C = mid mod 10^8 as C mod 10^k <= a or 10^k - C mod 10^k <= b,
// and C rounds to 10^drop, half to even on f. Like shortest's, that
// multiple lies in the interval, so it is not one of 10^8 (drop would be
// 8): it never carries out of C.
#define DROP(POW) \
	VPMULUDQ Z23, Z5, Z5 \
	VPSRLQ   $35, Z5, Z5      /* C / 10^k */ \
	MOVL     $POW, AX \
	VPBROADCASTQ AX, Z13 \
	VPMULUDQ Z13, Z5, Z14 \
	VPSUBQ   Z14, Z3, Z14     /* r = C mod 10^k */ \
	VPCMPUQ  $2, Z10, Z14, K5 /* r <= a */ \
	VPSUBQ   Z14, Z13, Z14 \
	VPCMPUQ  $2, Z11, Z14, K6 /* 10^k - r <= b */ \
	KORW     K5, K6, K5 \
	VMOVDQA64 Z5, K5, Z6      /* C / 10^drop */ \
	VMOVDQA64 Z13, K5, Z7     /* 10^drop */ \
	VPADDQ   Z26, Z9, K5, Z9  /* drop */

TEXT ·shortestAVX512(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), SI
	MOVQ grp+8(FP), DI
	MOVQ lay+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ pow5+32(FP), BX
	MOVQ $0x3eb0c6f7a0b5ed8d, AX
	VPBROADCASTQ AX, Z31 // 1e-6
	MOVQ $0x4340000000000000, AX
	VPBROADCASTQ AX, Z30 // 2^53
	MOVQ $0xfffffffffffff, AX
	VPBROADCASTQ AX, Z29 // the fraction field
	MOVL $1076, AX
	VPBROADCASTQ AX, Z28
	MOVL $78913, AX
	VPBROADCASTQ AX, Z27 // log10 2 · 2^18
	MOVL $1, AX
	VPBROADCASTQ AX, Z26
	MOVQ $0x3e45798ee2308c3a, AX
	VPBROADCASTQ AX, Z25 // 1e-8
	MOVL $100000000, AX
	VPBROADCASTQ AX, Z24
	MOVL $0xcccccccd, AX
	VPBROADCASTQ AX, Z23 // x·Z23>>35 is x/10 for any 32-bit x
	MOVL $2882303762, AX
	VPBROADCASTQ AX, Z22 // x·Z22>>58 is x/10^8 below 2^31
	VMOVDQU64 (BX), Z21
	VPMOVZXBQ interleave<>+0(SB), Z20
	VPMOVZXBQ interleave<>+8(SB), Z19
	VPMOVZXBQ interleave<>+16(SB), Z18
	VPMOVZXBQ interleave<>+24(SB), Z17
	MOVL $8, R10

step:
	TESTQ   R9, R9
	JLE     done
	MOVQ    R9, AX
	CMPQ    AX, R10
	CMOVQGT R10, AX
	MOVL    $0xff, DX
	BZHIL   AX, DX, DX
	KMOVW   DX, K1            // the entries this step
	VMOVDQU64.Z (SI), K1, Z0
	VPSRLQ   $63, Z0, Z1      // sign
	VPSLLQ   $1, Z0, Z0
	VPSRLQ   $1, Z0, Z0       // |v|
	VPCMPUQ  $5, Z31, Z0, K1, K2
	VPCMPUQ  $1, Z30, Z0, K2, K2
	VRNDSCALEPD $0x0b, Z0, Z2
	VCMPPD   $4, Z2, Z0, K2, K2 // in range and not an integer
	VPSRLQ   $52, Z0, Z2
	VPSUBQ   Z2, Z28, Z2      // -e2
	VPANDQ   Z29, Z0, Z3      // mant - 2^52
	VPMULUDQ Z27, Z2, Z4
	VPSRLQ   $18, Z4, Z4
	VPADDQ   Z26, Z4, Z4      // q
	VPSUBQ   Z4, Z2, Z2       // s
	VMOVDQA64 Z4, Z5
	VPERMI2Q 64(BX), Z21, Z5
	VPSRLQ   $4, Z4, Z6
	VPTESTMQ Z6, Z6, K3
	VPERMQ   128(BX), Z4, K3, Z5 // p = 5^q
	VPXORQ   Z6, Z6, Z6
	VPMADD52LUQ Z5, Z3, Z6    // L
	VMOVDQA64 Z5, Z7
	VPMADD52HUQ Z5, Z3, Z7    // H
	VPADDQ   Z6, Z6, Z6
	VPSRLVQ  Z2, Z6, Z8
	VPSLLVQ  Z2, Z8, Z9
	VPSUBQ   Z9, Z6, Z6       // f
	VPSLLQ   $53, Z7, Z9
	VPSRLQ   $11, Z7, Z10
	VPSHRDVQ Z2, Z10, Z9      // H·2^53 >> s
	VPADDQ   Z9, Z8, Z8       // mid
	VPSUBQ   Z6, Z5, Z10
	VPSUBQ   Z26, Z10, Z10
	VPSRLVQ  Z2, Z10, Z10     // a
	VPADDQ   Z6, Z5, Z11
	VPSRLVQ  Z2, Z11, Z11     // b
	VPSUBQ   Z26, Z2, Z2
	VPSRLVQ  Z2, Z6, Z12      // half: f's top bit
	VPSLLVQ  Z2, Z12, Z13
	VPCMPUQ  $4, Z13, Z6, K4  // sticky: and bits below it
	VCVTUQQ2PD Z8, Z0
	VMULPD   Z25, Z0, Z0
	VCVTTPD2UQQ Z0, Z0
	VPMULUDQ Z24, Z0, Z3
	VPSUBQ   Z3, Z8, Z3
	VPMOVQ2M Z3, K5
	VPSUBQ   Z26, Z0, K5, Z0
	VPADDQ   Z24, Z3, K5, Z3
	VPCMPUQ  $5, Z24, Z3, K5
	VPADDQ   Z26, Z0, K5, Z0  // mid / 10^8
	VPSUBQ   Z24, Z3, K5, Z3  // C

	VMOVDQA64 Z3, Z5
	VMOVDQA64 Z3, Z6
	VMOVDQA64 Z26, Z7
	VPXORQ   Z9, Z9, Z9
	DROP(10)
	DROP(100)
	DROP(1000)
	DROP(10000)
	DROP(100000)
	DROP(1000000)
	DROP(10000000)
	VPCMPUQ  $2, Z10, Z3, K5
	VPSUBQ   Z3, Z24, Z14
	VPCMPUQ  $2, Z11, Z14, K6
	KORW     K5, K6, K5
	KANDNW   K2, K5, K2       // less eight digits or more to drop

	VPMULUDQ Z7, Z6, Z14
	VPSUBQ   Z14, Z3, Z14     // R = C mod 10^drop
	VPADDQ   Z14, Z14, Z13
	VPADDQ   Z12, Z13, Z13    // twice R, and half
	VPTESTMQ Z26, Z6, K5
	KORW     K4, K5, K5
	VPCMPUQ  $0, Z7, Z13, K5, K5 // a tie, and sticky or odd
	VPCMPUQ  $6, Z7, Z13, K6  // or over half
	KORW     K5, K6, K5
	VPSUBQ   Z14, Z3, Z3
	VPADDQ   Z7, Z3, K5, Z3   // C of d·10^drop: never 10^8 in a kept lane
	VPMULUDQ Z22, Z0, Z13
	VPSRLQ   $58, Z13, Z13    // A
	VPMULUDQ Z24, Z13, Z14
	VPSUBQ   Z14, Z0, Z14     // B

	VPSUBQ   Z9, Z4, Z4       // frac
	VPSLLQ   $8, Z1, Z1
	VPSLLQ   $16, Z9, Z9
	VPTERNLOGQ $0xfe, Z1, Z9, Z4
	VMOVDQA64.Z Z4, K2, Z4
	VPMOVQD  Z4, (R8)
	MOVL     $0x24, AX
	KMOVW    AX, K3
	MOVL     $0x49, AX
	KMOVW    AX, K5
	MOVL     $0x92, AX
	KMOVW    AX, K6
	VMOVDQA64 Z20, Z15
	VPERMI2Q Z14, Z13, Z15
	VPERMQ   Z3, Z17, K3, Z15 // A0 B0 C0 A1 B1 C1 A2 B2
	VMOVDQA64 Z19, Z16
	VPERMI2Q Z14, Z13, Z16
	VPERMQ   Z3, Z17, K5, Z16 // C2 A3 B3 C3 A4 B4 C4 A5
	VMOVDQA64 Z18, Z0
	VPERMI2Q Z14, Z13, Z0
	VPERMQ   Z3, Z17, K6, Z0  // B5 C5 A6 B6 C6 A7 B7 C7
	VMOVDQU64 Z15, (DI)
	VMOVDQU64 Z16, 64(DI)
	VMOVDQU64 Z0, 128(DI)
	ADDQ     $64, SI
	ADDQ     $192, DI
	ADDQ     $32, R8
	SUBQ     $8, R9
	JMP      step

done:
	VZEROUPPER
	RET

// interleave holds, a byte a lane, the VPERMI2Q indices of A and B (A's
// lanes 0-7, B's 8-15) for the three group stores, and the VPERMQ indices
// of C for all three.
DATA interleave<>+0(SB)/8, $0x0a02000901000800
DATA interleave<>+8(SB)/8, $0x05000c04000b0300
DATA interleave<>+16(SB)/8, $0x000f07000e06000d
DATA interleave<>+24(SB)/8, $0x0704010603000502
GLOBL interleave<>(SB), RODATA|NOPTR, $32
