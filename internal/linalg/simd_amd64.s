//go:build !purego

#include "textflag.h"

// AVX2 bodies of the f64 kernels (DESIGN.md, "Memory layout and kernels").
// A lane is an output column. Each lane runs the Go loop's own operation
// sequence: one VMULPD, then one VADDPD, each rounded on its own, k ascending.
// Never the fused multiply-add: it rounds once and changes the bits.
// The Go wrappers slice every operand to its full extent before the call and
// hand over a column count that is a positive multiple of 4; every kernel
// ends in VZEROUPPER.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8
DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// func hasAVX2() bool
// CPUID.1:ECX OSXSAVE+AVX, XCR0 XMM+YMM state enabled by the OS, CPUID.7:EBX AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// One k-step of a row pair: Y8, Y9 (the C lanes of rows i, i+1) advance by
// ca0·B, ca1·B for the 4 columns at byte offset AX of the B row at bptr.
#define PAIR_STEP(bptr, ca0, ca1) \
	VMOVUPD (bptr)(AX*1), Y10; \
	VMULPD  Y10, ca0, Y11;     \
	VMULPD  Y10, ca1, Y12;     \
	VADDPD  Y8, Y11, Y8;       \
	VADDPD  Y9, Y12, Y9;

#define PAIR_LOOP(label, steps) \
label:                       \
	VMOVUPD (DI)(AX*1), Y8;  \
	VMOVUPD (SI)(AX*1), Y9;  \
	steps                    \
	VMOVUPD Y8, (DI)(AX*1);  \
	VMOVUPD Y9, (SI)(AX*1);  \
	ADDQ    $32, AX;         \
	CMPQ    AX, CX;          \
	JLT     label;           \
	VZEROUPPER;              \
	RET

// func axpyPairAVX2(c0, c1, b []float64, n, depth int, a0, a1 *[4]float64)
// c0, c1: the leading 4·⌊n/4⌋ columns of two C rows; b: depth rows of B, n apart.
TEXT ·axpyPairAVX2(SB), NOSPLIT, $0-104
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ c1_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ n+72(FP), DX
	MOVQ depth+80(FP), R11
	MOVQ a0+88(FP), R12
	MOVQ a1+96(FP), R13
	SHLQ $3, CX
	SHLQ $3, DX
	LEAQ (BX)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	XORQ AX, AX
	VBROADCASTSD 0(R12), Y0
	VBROADCASTSD 8(R12), Y1
	VBROADCASTSD 16(R12), Y2
	VBROADCASTSD 24(R12), Y3
	VBROADCASTSD 0(R13), Y4
	VBROADCASTSD 8(R13), Y5
	VBROADCASTSD 16(R13), Y6
	VBROADCASTSD 24(R13), Y7
	CMPQ R11, $4
	JEQ  pair4
	CMPQ R11, $3
	JEQ  pair3
	CMPQ R11, $2
	JEQ  pair2
	CMPQ R11, $1
	JEQ  pair1
	VZEROUPPER
	RET
	PAIR_LOOP(pair4, PAIR_STEP(BX, Y0, Y4) PAIR_STEP(R8, Y1, Y5) PAIR_STEP(R9, Y2, Y6) PAIR_STEP(R10, Y3, Y7))
	PAIR_LOOP(pair3, PAIR_STEP(BX, Y0, Y4) PAIR_STEP(R8, Y1, Y5) PAIR_STEP(R9, Y2, Y6))
	PAIR_LOOP(pair2, PAIR_STEP(BX, Y0, Y4) PAIR_STEP(R8, Y1, Y5))
	PAIR_LOOP(pair1, PAIR_STEP(BX, Y0, Y4))

// One k-step of a single row: Y8 advances by ca·B.
#define ROW_STEP(bptr, ca) \
	VMULPD (bptr)(AX*1), ca, Y11; \
	VADDPD Y8, Y11, Y8

// func axpyRowAVX2(c0, b []float64, n int, a []float64)
// c0: the leading 4·⌊n/4⌋ columns of one C row; b: len(a) rows of B, n apart.
// Four k-steps per pass over the row while four remain, then one per pass.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-80
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ b_base+24(FP), BX
	MOVQ n+48(FP), DX
	MOVQ a_base+56(FP), R12
	MOVQ a_len+64(FP), R11
	SHLQ $3, CX
	SHLQ $3, DX
row4:
	CMPQ R11, $4
	JLT  row1
	VBROADCASTSD 0(R12), Y0
	VBROADCASTSD 8(R12), Y1
	VBROADCASTSD 16(R12), Y2
	VBROADCASTSD 24(R12), Y3
	LEAQ (BX)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	XORQ AX, AX
row4loop:
	VMOVUPD (DI)(AX*1), Y8
	ROW_STEP(BX, Y0)
	ROW_STEP(R8, Y1)
	ROW_STEP(R9, Y2)
	ROW_STEP(R10, Y3)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     row4loop
	LEAQ    (R10)(DX*1), BX
	ADDQ    $32, R12
	SUBQ    $4, R11
	JMP     row4
row1:
	TESTQ R11, R11
	JZ    rowdone
	VBROADCASTSD 0(R12), Y0
	XORQ  AX, AX
row1loop:
	VMOVUPD (DI)(AX*1), Y8
	ROW_STEP(BX, Y0)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     row1loop
	ADDQ    DX, BX
	ADDQ    $8, R12
	DECQ    R11
	JMP     row1
rowdone:
	VZEROUPPER
	RET

// One k-step of the dot form: the row-lane accumulators Y8 (and Y9) advance
// by at·b0[p] (and at·b1[p]), at holding A[i..i+3][p].
#define DOT_STEP1(at, off) \
	VBROADCASTSD off(BX)(AX*1), Y10; \
	VMULPD       Y10, at, Y11;       \
	VADDPD       Y11, Y8, Y8;
#define DOT_STEP2(at, off) \
	DOT_STEP1(at, off)               \
	VBROADCASTSD off(DX)(AX*1), Y10; \
	VMULPD       Y10, at, Y11;       \
	VADDPD       Y11, Y9, Y9;

// Four k-steps: load A[i..i+3][p..p+3], transpose the 4×4 block in registers
// so that a register holds one p of all four rows, then step p ascending.
#define DOT_LOOP(label, STEP) \
label:                            \
	VMOVUPD    (R8)(AX*1), Y0;    \
	VMOVUPD    (R9)(AX*1), Y1;    \
	VMOVUPD    (R10)(AX*1), Y2;   \
	VMOVUPD    (R11)(AX*1), Y3;   \
	VUNPCKLPD  Y1, Y0, Y4;        \
	VUNPCKHPD  Y1, Y0, Y5;        \
	VUNPCKLPD  Y3, Y2, Y6;        \
	VUNPCKHPD  Y3, Y2, Y7;        \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	STEP(Y0, 0)                   \
	STEP(Y1, 8)                   \
	STEP(Y2, 16)                  \
	STEP(Y3, 24)                  \
	ADDQ       $32, AX;           \
	CMPQ       AX, CX;            \
	JLT        label;             \
	JMP        dotdone

// func dot4AVX2(s *[8]float64, a []float64, k int, b0, b1 []float64)
// a: rows i..i+3 of A, k apart; b0, b1: the leading 4·⌊k/4⌋ elements of one or
// two rows of B (len(b1) = 0: one). A lane is a row of A: on return
// s[r] = Σ_p a_r[p]·b0[p] and s[4+r] = Σ_p a_r[p]·b1[p], each summed from zero
// over p ascending.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-88
	MOVQ s+0(FP), DI
	MOVQ a_base+8(FP), R8
	MOVQ k+32(FP), R12
	MOVQ b0_base+40(FP), BX
	MOVQ b0_len+48(FP), CX
	MOVQ b1_base+64(FP), DX
	MOVQ b1_len+72(FP), R13
	SHLQ $3, CX
	SHLQ $3, R12
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	XORQ AX, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	TESTQ R13, R13
	JZ   dot1
	DOT_LOOP(dot2, DOT_STEP2)
	DOT_LOOP(dot1, DOT_STEP1)
dotdone:
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VZEROUPPER
	RET

// func addAVX2(dst, src []float64)
// dst[j] += src[j] over len(dst) = 4·k columns.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHLQ $3, CX
	XORQ AX, AX
addloop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addloop
	VZEROUPPER
	RET

// func reluAVX2(x []float64)
// x[j] = max(x[j], 0) as the Go compiler spells the builtin on amd64, packed:
// negate both, min(min(-x, -0), -x) OR min(-x, -0), negate. MINPD returns its
// second source when an operand is a NaN or both are zeros, which is what
// makes a NaN keep its payload and max(-0, 0) come out +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VBROADCASTSD signbit<>(SB), Y1
reluloop:
	VMOVUPD (DI)(AX*1), Y0
	VXORPD  Y1, Y0, Y0
	VMINPD  Y1, Y0, Y2
	VMINPD  Y0, Y2, Y3
	VORPD   Y2, Y3, Y3
	VXORPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluloop
	VZEROUPPER
	RET

// func reluGateAVX2(g, y []float64)
// g[j] *= 1.0 where y[j] is non-zero with the sign bit clear — as a signed
// 64-bit integer, y > 0 — and *= 0.0 elsewhere.
TEXT ·reluGateAVX2(SB), NOSPLIT, $0-48
	MOVQ g_base+0(FP), DI
	MOVQ g_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	SHLQ $3, CX
	XORQ AX, AX
	VBROADCASTSD one<>(SB), Y1
	VPXOR Y2, Y2, Y2
gateloop:
	VMOVDQU  (SI)(AX*1), Y0
	VPCMPGTQ Y2, Y0, Y0
	VPAND    Y1, Y0, Y0
	VMULPD   (DI)(AX*1), Y0, Y0
	VMOVUPD  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      gateloop
	VZEROUPPER
	RET
