// The YMM pass of the k-wide CSR kernels, shared by the AVX2 kernel (every
// pass) and the AVX-512 one (a pass of at most four vectors, where a
// masked ZMM pass reads at most half of each 64-byte x load and runs
// about 1.45x slower on a 1 000-entry-row matrix).

// csrLaneMask is a sliding window of qword lane masks: the 32 bytes at
// offset 32-8n select the first n of four lanes, n in [1, 4].
DATA csrLaneMask<>+0(SB)/8, $-1
DATA csrLaneMask<>+8(SB)/8, $-1
DATA csrLaneMask<>+16(SB)/8, $-1
DATA csrLaneMask<>+24(SB)/8, $-1
DATA csrLaneMask<>+32(SB)/8, $0
DATA csrLaneMask<>+40(SB)/8, $0
DATA csrLaneMask<>+48(SB)/8, $0
DATA csrLaneMask<>+56(SB)/8, $0
GLOBL csrLaneMask<>(SB), RODATA|NOPTR, $64

// CSR_TILE_STEP_YMM is entry E of an 8-group into the partial sums ACC:
// its index (LOADS widens one, SCALE is its size) times the x row pitch
// R12 addresses its x operands past R14, loaded under the lane mask Y10,
// and its value is broadcast.
#define CSR_TILE_STEP_YMM(LOADS, SCALE, E, ACC) \
	LOADS (E*SCALE)(DI)(AX*SCALE), CX \
	IMULQ R12, CX \
	VMASKMOVPD (R14)(CX*1), Y10, Y8 \
	VBROADCASTSD (E*8)(SI)(AX*8), Y9 \
	VFMADD231PD Y8, Y9, ACC

// CSR_TILE_YMM_PASS computes the vectors of row R10 at byte offset R13 of
// the row (CX bytes of them, 8 to 32) into y's row at R9: Y0..Y7 hold
// partial sums 0..7 of the pass's vectors from +0, entry j of the row
// FMAs into Y(j mod 8), and the pass reduces lane-wise as
// ((Y0+Y4)+(Y2+Y6)) + ((Y1+Y5)+(Y3+Y7)) into a masked store. R8 is
// rowPtr, DI the indices, SI the values, DX x. GROUP, REST and REDUCE
// name the pass's labels.
#define CSR_TILE_YMM_PASS(LOADS, SCALE, GROUP, REST, REDUCE) \
	LEAQ csrLaneMask<>+32(SB), BX \
	SUBQ CX, BX \
	VMOVDQU (BX), Y10              /* the pass's live lanes */ \
	LEAQ (DX)(R13*1), R14          /* x at the pass's first vector */ \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7 \
	MOVLQSX (R8)(R10*4), AX        /* j = start */ \
	MOVLQSX 4(R8)(R10*4), BX \
	SUBQ AX, BX \
	ANDQ $-8, BX \
	ADDQ AX, BX                    /* where the 8-groups end */ \
GROUP: \
	CMPQ AX, BX \
	JGE  REST \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 0, Y0) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 1, Y1) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 2, Y2) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 3, Y3) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 4, Y4) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 5, Y5) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 6, Y6) \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 7, Y7) \
	ADDQ $8, AX \
	JMP  GROUP \
REST: \
	MOVLQSX 4(R8)(R10*4), BX \
	SUBQ AX, BX                    /* entries left, 0..7 */ \
	JZ   REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 0, Y0) \
	CMPQ BX, $1 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 1, Y1) \
	CMPQ BX, $2 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 2, Y2) \
	CMPQ BX, $3 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 3, Y3) \
	CMPQ BX, $4 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 4, Y4) \
	CMPQ BX, $5 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 5, Y5) \
	CMPQ BX, $6 \
	JEQ  REDUCE \
	CSR_TILE_STEP_YMM(LOADS, SCALE, 6, Y6) \
REDUCE: \
	VADDPD Y4, Y0, Y0 \
	VADDPD Y6, Y2, Y2 \
	VADDPD Y5, Y1, Y1 \
	VADDPD Y7, Y3, Y3 \
	VADDPD Y2, Y0, Y0 \
	VADDPD Y3, Y1, Y1 \
	VADDPD Y1, Y0, Y0 \
	VMASKMOVPD Y0, Y10, (R9)(R13*1)
